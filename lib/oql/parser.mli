(** Recursive-descent parser for the OQL subset of {!Ast}.

    Grammar sketch (precedence low to high):

    {v
    query   := or
    or      := and ("or" and)*
    and     := cmp ("and" cmp)*
    cmp     := add (("="|"!="|"<>"|"<"|"<="|">"|">=") add)?
    add     := mul (("+"|"-") mul)*
    mul     := unary (("*"|"/"|"mod") unary)*
    unary   := "not" unary | "-" unary | postfix
    postfix := atom ("." ident | "*" )*            -- star per Section 2.2.1
    atom    := literal | ident | call | select | struct | bag/set/list
             | "(" query ")"
    select  := "select" ["distinct"] query
               "from" binding (("," | "and") binding)*
               ["where" query]
    binding := ident "in" postfix-or-parenthesized-query
    v}

    [from] bindings may be separated by [,] or by [and], as the paper
    writes both ([from x in person0 and y in person1], Section 2.2.3). *)

val parse : string -> Ast.query
(** Raises [Disco_lex.Lexer.Error] on malformed input. *)

val puncts : string list
(** The punctuation set OQL is tokenized with. *)
