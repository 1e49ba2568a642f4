(** Wrapper capability grammars (paper Section 3.2).

    A wrapper describes the logical expressions it accepts by returning a
    context-free grammar over operator tokens; the mediator serializes a
    candidate [Submit] argument into a token string and checks
    derivability. This module implements the grammar representation, an
    Earley recognizer, a per-grammar memo of its verdicts (so each
    capability question is answered once; see {!accepts}), the
    serializer, and builders for the paper's grammar shapes — including
    its literal example: a wrapper that understands
    [get] and [project] of sources but not their composition:

    {v
    a :- b
    a :- c
    b :- get OPEN SOURCE CLOSE
    c :- project OPEN ATTRIBUTE COMMA SOURCE CLOSE
    v} *)

type symbol = T of string | N of string

type production = { lhs : string; rhs : symbol list }

type memo
(** The verdicts {!accepts} has recorded for one grammar value. *)

type t = private {
  start : string;
  productions : production list;
  memo : memo;
}
(** Grammars are built by {!parse} (and the builders below), each with
    its own empty memo. Compare them with {!equal}: polymorphic equality
    also compares memos, so two equal grammars asked different questions
    would differ. *)

val equal : t -> t -> bool
(** Same start symbol and same productions; memos are ignored. *)

val pp : Format.formatter -> t -> unit
(** Prints in the paper's [a :- b] notation. *)

val parse : string -> t
(** Parse the paper notation: one production per line, [lhs :- sym sym
    ...]; UPPERCASE and punctuation-like names are terminals, lowercase
    names that appear as a lhs are nonterminals; the first lhs is the
    start symbol. An empty rhs is an empty production. Lowercase rhs
    names that are neither a defined nonterminal nor part of the
    serializer's terminal vocabulary (the operator names and predicate
    connectives of {!tokens_of_expr}) raise [Invalid_argument] — such a
    production could never derive anything and previously failed
    silently. *)

(** {1 Serialization of logical expressions} *)

val tokens_of_expr : Disco_algebra.Expr.expr -> string list
(** The token string of a logical expression. Terminals used: operator
    names ([get], [select], [project], [map], [join], [union],
    [distinct]), [OPEN], [CLOSE], [COMMA], [SOURCE], [ATTRIBUTE], [CONST],
    [ARITH], comparison symbols ([=], [!=], [<], [<=], [>], [>=]),
    [and], [or], [not], and [BIND] for the binding-struct constructor
    [Map(e, struct(x: @elem))] (so grammars can distinguish aliasing from
    computed maps).

    Attribute references serialize with their terminal field name:
    [Attr ["x"; "salary"]] becomes [ATTRIBUTE:salary] (and [Attr []],
    the whole element, stays [ATTRIBUTE]). In a grammar, the generic
    [ATTRIBUTE] terminal matches any [ATTRIBUTE:f] token, so
    attribute-agnostic grammars are unaffected; a named terminal
    [ATTRIBUTE:f] matches only that attribute, which is how
    {!indexed_lookup} advertises index-backed productions. *)

(** {1 Recognition} *)

val derives : t -> string list -> bool
(** Earley recognition: does the grammar derive the token string? *)

val accepts : t -> Disco_algebra.Expr.expr -> bool
(** [derives g (tokens_of_expr e)], answered once per token string.
    Each grammar value keeps a memo from token string to verdict: a miss
    runs {!derives} and records the answer. The token string erases
    sources, constants and range-variable names, so every expression of
    one shape shares a verdict. The memo holds at most {!memo_bound}
    entries and starts again empty when full.

    Thread safety: the memo is an immutable map in an [Atomic.t],
    replaced whole by compare-and-set, so one grammar value (say
    {!full_relational}) may be asked concurrently from several domains
    and threads. A lost race only means a verdict is computed twice. *)

val memo_bound : int
(** The most verdicts one grammar's memo holds (1024). *)

(** {1 Coverage} *)

val production_to_string : production -> string
(** One production in the paper's [a :- b c] notation. *)

val named_attributes : t -> string list
(** The attribute names the grammar mentions as named terminals
    ([ATTRIBUTE:f]) — how {!indexed_lookup} advertises index-backed
    productions. Sorted, duplicates removed. *)

val used_productions : t -> string list -> production list
(** The productions that participate in at least one derivation of the
    token string, in grammar order; empty when the string does not
    derive. The static analyzer's coverage primitive: a production no
    workload sentence ever uses is a dead capability advertisement. *)

(** {1 Standard grammars} *)

val get_only : t
(** Only [get(SOURCE)]. *)

val project_no_compose : t
(** The paper's example: [get(SOURCE)] or [project(attrs, get(SOURCE))],
    no composition. *)

val select_pushdown : ?comparisons:string list -> unit -> t
(** [get], and [select(pred, get(SOURCE))] with the given comparison
    operators (default: all six); conjunction/disjunction/negation
    allowed. *)

val full_relational : t
(** Arbitrary composition of get/select/project/map/join/distinct with
    binds and all comparisons (including [like] and membership) — what a
    SQL wrapper advertises. Unions stay on the mediator: the paper's
    [mkunion] is always a mediator-side algorithm. *)

val key_lookup : t
(** [get(SOURCE)] or [select(ATTRIBUTE = CONST, get(SOURCE))] — a
    key-value store: scan or exact-match lookup only. *)

val indexed_lookup : ?eq:string list -> ?range:string list -> unit -> t
(** Index advertisement (the Mask-Mediator-Wrapper idea of exposing what
    a source serves cheaply): [get(SOURCE)], or [select] over it with a
    conjunction of comparisons that each name an indexed attribute —
    [ATTRIBUTE:a = CONST] for every [a] in [eq] (hash indexes), and
    additionally [<] [<=] [>] [>=] for every [a] in [range] (sorted
    indexes). Attributes outside the two lists are not derivable, so the
    optimizer can only push filters the source will answer from an
    access path. With both lists empty this degrades to {!get_only}. *)
