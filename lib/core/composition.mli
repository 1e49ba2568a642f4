(** Mediator composition (paper Figure 1: "permits mediators to be
    combined").

    A mediator becomes a data source of another mediator: {!as_source}
    produces a {!Disco_source.Source.t} carrying the sub-mediator's
    network characteristics (latency, availability) and a
    {!Disco_wrapper.Wrapper.t} that decompiles incoming logical
    expressions to OQL and runs them through the sub-mediator's full query
    engine. The sub-mediator thus looks exactly like any other wrapped
    source; its extents are declared in the parent with ordinary [extent]
    statements (one per sub-mediator extent or view to re-export).

    If the sub-mediator itself returns a partial answer, the call fails
    as a source error and the parent classifies it like any refused call;
    propagating partial answers across mediator levels is future work in
    the paper too.

    The sub-mediator must not share the parent's virtual clock: its query
    runs inside the parent's wire call and advances its own clock, which
    on a shared clock would move the parent's time forward under the
    call it is still timing ([Clock.advance_to] then fails). Create each
    sub-mediator with its own clock. *)

val as_source :
  ?latency:Disco_source.Source.latency ->
  ?schedule:Disco_source.Schedule.t ->
  Mediator.t ->
  Disco_source.Source.t * Disco_wrapper.Wrapper.t
(** [as_source m] is a (source, wrapper) pair for registering [m] in a
    parent: [register_source parent ~name:"rm" src] plus
    [register_wrapper parent ~name:"wm" w]. The source's address is
    derived from the mediator's name. The returned wrapper advertises
    full relational capability. *)
