type ('k, 'v) node = {
  n_key : 'k;
  mutable n_value : 'v;
  mutable n_prev : ('k, 'v) node option;  (* towards MRU *)
  mutable n_next : ('k, 'v) node option;  (* towards LRU *)
  n_self : ('k, 'v) node option;
      (* [Some] of this node, made once, so relinking allocates nothing *)
}

type ('k, 'v) t = {
  cap : int;
  tbl : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;  (* most recently used *)
  mutable tail : ('k, 'v) node option;  (* least recently used *)
  mutable evicted : int;
}

(* The table starts at no more than the default capacity's size and
   grows with its entries: a large bound (the cost model's) must not cost
   every fresh cache its whole table. *)
let create ?(capacity = 128) () =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be >= 1";
  {
    cap = capacity;
    tbl = Hashtbl.create (min capacity 128);
    head = None;
    tail = None;
    evicted = 0;
  }

let capacity t = t.cap
let length t = Hashtbl.length t.tbl

let unlink t node =
  (match node.n_prev with
  | Some p -> p.n_next <- node.n_next
  | None -> t.head <- node.n_next);
  (match node.n_next with
  | Some n -> n.n_prev <- node.n_prev
  | None -> t.tail <- node.n_prev);
  node.n_prev <- None;
  node.n_next <- None

let push_front t node =
  node.n_prev <- None;
  node.n_next <- t.head;
  (match t.head with Some h -> h.n_prev <- node.n_self | None -> t.tail <- node.n_self);
  t.head <- node.n_self

let touch t node =
  unlink t node;
  push_front t node

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | None -> None
  | Some node ->
      touch t node;
      Some node.n_value

let peek t key = Option.map (fun n -> n.n_value) (Hashtbl.find_opt t.tbl key)

let evict_over_capacity t =
  while Hashtbl.length t.tbl > t.cap do
    match t.tail with
    | None -> assert false (* length > cap >= 1 implies a tail *)
    | Some lru ->
        unlink t lru;
        Hashtbl.remove t.tbl lru.n_key;
        t.evicted <- t.evicted + 1
  done

let insert t key value =
  let rec node =
    { n_key = key; n_value = value; n_prev = None; n_next = None; n_self = Some node }
  in
  Hashtbl.replace t.tbl key node;
  push_front t node;
  evict_over_capacity t

let add t key value =
  match Hashtbl.find_opt t.tbl key with
  | Some node ->
      node.n_value <- value;
      touch t node
  | None -> insert t key value

(* [Hashtbl.find] raises a preallocated [Not_found], so a hit allocates
   nothing. *)
let find_or_add t key make =
  match Hashtbl.find t.tbl key with
  | node ->
      touch t node;
      node.n_value
  | exception Not_found ->
      let value = make () in
      insert t key value;
      value

let remove t key =
  match Hashtbl.find_opt t.tbl key with
  | None -> ()
  | Some node ->
      unlink t node;
      Hashtbl.remove t.tbl key

let clear t =
  Hashtbl.reset t.tbl;
  t.head <- None;
  t.tail <- None

let evictions t = t.evicted

let to_list t =
  let rec go acc = function
    | None -> List.rev acc
    | Some n -> go ((n.n_key, n.n_value) :: acc) n.n_next
  in
  go [] t.head

let fold f t init =
  List.fold_left (fun acc (k, v) -> f k v acc) init (to_list t)
