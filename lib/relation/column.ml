module V = Disco_value.Value

type strings = {
  mutable codes : int array;
  mutable dict : string array;
  mutable dict_size : int;
  interned : (string, int) Hashtbl.t;
}

type payload =
  | Ints of int array
  | Floats of float array
  | Bools of Bytes.t
  | Strings of strings

type t = {
  mutable len : int;
  mutable nulls : Bytes.t;
  mutable payload : payload;
}

let initial_capacity = 16

let create ty =
  let payload =
    match ty with
    | Schema.TInt -> Ints (Array.make initial_capacity 0)
    | Schema.TFloat -> Floats (Array.make initial_capacity 0.0)
    | Schema.TBool -> Bools (Bytes.make initial_capacity '\000')
    | Schema.TString ->
        Strings
          {
            codes = Array.make initial_capacity (-1);
            dict = Array.make initial_capacity "";
            dict_size = 0;
            interned = Hashtbl.create 64;
          }
  in
  { len = 0; nulls = Bytes.make initial_capacity '\000'; payload }

let col_type t =
  match t.payload with
  | Ints _ -> Schema.TInt
  | Floats _ -> Schema.TFloat
  | Bools _ -> Schema.TBool
  | Strings _ -> Schema.TString

let length t = t.len

let grow_bytes b used =
  let b' = Bytes.make (2 * Bytes.length b) '\000' in
  Bytes.blit b 0 b' 0 used;
  b'

let grow_array a used fill =
  let a' = Array.make (2 * Array.length a) fill in
  Array.blit a 0 a' 0 used;
  a'

let ensure_capacity t =
  if t.len >= Bytes.length t.nulls then
    t.nulls <- grow_bytes t.nulls t.len;
  match t.payload with
  | Ints a when t.len >= Array.length a ->
      t.payload <- Ints (grow_array a t.len 0)
  | Floats a when t.len >= Array.length a ->
      t.payload <- Floats (grow_array a t.len 0.0)
  | Bools b when t.len >= Bytes.length b ->
      t.payload <- Bools (grow_bytes b t.len)
  | Strings s when t.len >= Array.length s.codes ->
      s.codes <- grow_array s.codes t.len (-1)
  | Ints _ | Floats _ | Bools _ | Strings _ -> ()

let intern s str =
  match Hashtbl.find_opt s.interned str with
  | Some code -> code
  | None ->
      let code = s.dict_size in
      if code >= Array.length s.dict then
        s.dict <- grow_array s.dict code "";
      s.dict.(code) <- str;
      s.dict_size <- code + 1;
      Hashtbl.add s.interned str code;
      code

let append t v =
  ensure_capacity t;
  let i = t.len in
  (match (t.payload, v) with
  | _, V.Null -> Bytes.set t.nulls i '\001'
  | Ints a, V.Int x -> a.(i) <- x
  | Floats a, V.Float x -> a.(i) <- x
  | Bools b, V.Bool x -> Bytes.set b i (if x then '\001' else '\000')
  | Strings s, V.String str -> s.codes.(i) <- intern s str
  | _ ->
      invalid_arg
        (Fmt.str "Column.append: %s into a %s column" (V.type_name v)
           (Schema.col_type_name (col_type t))));
  t.len <- i + 1

let filter t ids n =
  (* the old capacity: a delete is often followed by appends *)
  let cap = Bytes.length t.nulls in
  let kept f =
    for i = 0 to t.len - 1 do
      let j = ids.(i) in
      if j >= 0 then f i j
    done
  in
  let nulls = Bytes.make cap '\000' in
  kept (fun i j -> Bytes.set nulls j (Bytes.get t.nulls i));
  let payload =
    match t.payload with
    | Ints a ->
        let a' = Array.make cap 0 in
        kept (fun i j -> a'.(j) <- a.(i));
        Ints a'
    | Floats a ->
        let a' = Array.make cap 0.0 in
        kept (fun i j -> a'.(j) <- a.(i));
        Floats a'
    | Bools b ->
        let b' = Bytes.make cap '\000' in
        kept (fun i j -> Bytes.set b' j (Bytes.get b i));
        Bools b'
    | Strings s ->
        (* renumber the surviving codes in their old order *)
        let recode = Array.make (max 1 s.dict_size) (-1) in
        kept (fun i _ ->
            let c = s.codes.(i) in
            if c >= 0 then recode.(c) <- 0);
        let dict_size = ref 0 in
        Array.iteri
          (fun c mark ->
            if mark = 0 then (
              recode.(c) <- !dict_size;
              incr dict_size))
          recode;
        let dict = Array.make (Array.length s.dict) "" in
        let interned = Hashtbl.create (max 64 !dict_size) in
        Array.iteri
          (fun c c' ->
            if c' >= 0 then (
              dict.(c') <- s.dict.(c);
              Hashtbl.add interned s.dict.(c) c'))
          recode;
        let codes = Array.make cap (-1) in
        kept (fun i j ->
            let c = s.codes.(i) in
            if c >= 0 then codes.(j) <- recode.(c));
        Strings { codes; dict; dict_size = !dict_size; interned }
  in
  t.len <- n;
  t.nulls <- nulls;
  t.payload <- payload

let is_null t i = Bytes.get t.nulls i = '\001'

let get t i =
  if is_null t i then V.Null
  else
    match t.payload with
    | Ints a -> V.Int a.(i)
    | Floats a -> V.Float a.(i)
    | Bools b -> V.Bool (Bytes.get b i = '\001')
    | Strings s -> V.String s.dict.(s.codes.(i))

let code_of_opt t str =
  match t.payload with
  | Strings s -> Hashtbl.find_opt s.interned str
  | Ints _ | Floats _ | Bools _ -> None

let dict_size t =
  match t.payload with
  | Strings s -> s.dict_size
  | Ints _ | Floats _ | Bools _ -> 0

let dict_entry t code =
  match t.payload with
  | Strings s ->
      if code < 0 || code >= s.dict_size then
        invalid_arg "Column.dict_entry: code out of range";
      s.dict.(code)
  | Ints _ | Floats _ | Bools _ ->
      invalid_arg "Column.dict_entry: not a string column"
