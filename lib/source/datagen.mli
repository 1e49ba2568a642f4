(** Deterministic workload generators for the paper's example domains.

    Every generator takes an explicit [seed], so experiment tables are
    exactly reproducible. The domains come from the paper: the person /
    salary examples of Sections 1–2, the employee / manager join of
    Section 3.2, and the water-quality environmental application of
    Section 1 ("multiple databases, distributed geographically, contain
    measurements of water quality"). *)

module V := Disco_value.Value

val person_schema : Disco_relation.Schema.t
(** (id int, name string, salary int) *)

val person_rows : seed:int -> n:int -> V.t array list
(** Distinct ids [0..n-1]; salaries drawn in [10, 500]. *)

val person_two_schema : Disco_relation.Schema.t
(** (id int, name string, regular int, consult int) — Section 2.3's
    [PersonTwo] with split pay. *)

val employee_schema : Disco_relation.Schema.t
(** (name string, dept string) *)

val manager_schema : Disco_relation.Schema.t
(** (name string, dept string) *)

val employee_rows : seed:int -> n:int -> depts:int -> V.t array list
val manager_rows : seed:int -> depts:int -> V.t array list

val water_schema : Disco_relation.Schema.t
(** (station string, ts int, ph float, turbidity float, oxygen float) *)

val water_rows : seed:int -> station:string -> n:int -> V.t array list

val person_db : seed:int -> name:string -> n:int -> Disco_relation.Database.t
(** A database holding one [name] table of [person_schema] rows. *)

val table_of : Disco_relation.Database.t -> name:string -> Disco_relation.Schema.t -> V.t array list -> Disco_relation.Table.t
(** Create a table in [db] and load the rows. *)

val uniform_int : seed:int -> int -> int -> int -> int -> int
(** [uniform_int ~seed salt index lo hi]: the [index]-th draw from the
    deterministic stream named by [salt], uniform in [[lo, hi]]. *)

val pick_name : seed:int -> int -> string
(** A human-looking name for row [index]. *)
