(* Seeded benchmark inputs, built only with the repository's public
   generators.  The same seed always gives the same files and the same
   request sequence; the program under test sees only what is written
   here (or framed from it). *)

let rng ~seed tag = Random.State.make [| seed; Hashtbl.hash tag |]

let shuffle st items =
  let a = Array.of_list items in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Four significant digits, so the value written to a file is exactly
   the value the checks use. *)
let round4 v = float_of_string (Printf.sprintf "%.4g" v)
let jitter st v = round4 (v *. (0.8 +. Random.State.float st 0.45))

let write_file path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* ------------------------------------------------------------------ *)
(* uml_roundtrip                                                       *)
(* ------------------------------------------------------------------ *)

(* Journeys of 99 to 101 transmitters: wide enough that the seed picks
   different projects, narrow enough that every run costs the same. *)
let transmitter_band = [ 99; 100; 101 ]

type project = {
  k : int;
  xmi : string;  (** path of the Poseidon project *)
  rates_path : string;
  journey_throughput : float;  (** 1 / sum of 1/rate over the cycle *)
}

let journey_rates st k =
  List.fold_left
    (fun book (name, v) -> Uml.Rates_file.add book name (jitter st v))
    Uml.Rates_file.empty
    (Uml.Rates_file.bindings (Scenarios.Pda.rates_for_transmitters k))

(* The cycle a journey token runs: every segment's three activities,
   the final download, and the [return_ua] restart back to the start. *)
let cycle_activities k =
  List.concat_map
    (fun s ->
      [ Printf.sprintf "download_%d" s; Printf.sprintf "detect_weak_%d" s; Printf.sprintf "handover_%d" s ])
    (List.init (k - 1) (fun i -> i + 1))
  @ [ "finish_download"; "return_ua" ]

let project ~seed ~dir k =
  let st = rng ~seed ("uml_roundtrip", k) in
  let rates = journey_rates st k in
  let server =
    Scenarios.Tomcat.server_jsp
      ~translate:(round4 (1.5 +. Random.State.float st 1.0))
      ~compile:(round4 (1.0 +. Random.State.float st 1.0))
      ()
  in
  let doc =
    Uml.Poseidon.add_layout
      (Uml.Xmi_write.document_to_xml ~model_name:(Printf.sprintf "Journey%d" k)
         [ Scenarios.Pda.diagram_with_transmitters k ]
         [ Scenarios.Tomcat.client (); server ])
  in
  let xmi = Filename.concat dir (Printf.sprintf "P%d.xmi" k) in
  let rates_path = Filename.concat dir (Printf.sprintf "P%d.rates" k) in
  Xml_kit.Minixml.write_file xmi doc;
  write_file rates_path (Uml.Rates_file.to_string rates);
  let cycle_time =
    List.fold_left (fun acc a -> acc +. (1.0 /. Uml.Rates_file.rate rates a)) 0.0 (cycle_activities k)
  in
  { k; xmi; rates_path; journey_throughput = 1.0 /. cycle_time }

let projects ~seed ~dir = List.map (project ~seed ~dir) transmitter_band

(* ------------------------------------------------------------------ *)
(* exact_solve                                                         *)
(* ------------------------------------------------------------------ *)

(* 29^3 ... 31^3 states around the 29,791-state capacity-30 tandem. *)
let capacity_band = [ 29; 30; 31 ]

let tandems ~dir =
  List.map
    (fun capacity ->
      let path = Filename.concat dir (Printf.sprintf "T%d.pepa" capacity) in
      write_file path (Scenarios.Tandem.source ~stations:3 ~capacity);
      path)
    capacity_band

(* ------------------------------------------------------------------ *)
(* daemon_mix                                                          *)
(* ------------------------------------------------------------------ *)

type model = {
  name : string;
  kind : Service.Protocol.model_kind;
  source : string;
  options : Service.Protocol.options;
  rate_literal : string;
      (** a substring of [source] holding one rate; a cold request
          rewrites the number in it *)
  balanced : string list;
      (** actions whose throughputs flow balance makes equal *)
}

type cls = Cached | Method | Cold | Sweep

let cls_name = function Cached -> "cached" | Method -> "method" | Cold -> "cold" | Sweep -> "sweep"

type request = { cls : cls; model : model; request : Service.Protocol.request }

let defaults = Service.Protocol.default_options
let symmetry = { defaults with Service.Protocol.aggregate = Markov.Lump.Symmetry }
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The models every daemon run draws from: the bundled assets that
   solve in milliseconds, replicated roaming populations of 8-10 users
   (solved under symmetry aggregation, as their size requires) and
   tandems of capacity 9-12.  Unperturbed, they are the hot set. *)
let pool ~assets =
  let asset file kind rate_literal balanced =
    {
      name = file;
      kind;
      source = read_file (Filename.concat assets file);
      options = defaults;
      rate_literal;
      balanced;
    }
  in
  [
    asset "mm1k.pepa" Service.Protocol.Pepa "serve = 3.0;" [ "arrive"; "serve" ];
    asset "instant_message.pepanet" Service.Protocol.Net "rr = 10.0;"
      [ "openread"; "openwrite"; "read"; "sendback"; "transmit"; "write" ];
    asset "roaming.pepanet" Service.Protocol.Net "probe_r = 4.0;" [ "hop"; "log"; "probe" ];
  ]
  @ List.map
      (fun replicas ->
        {
          name = Printf.sprintf "roaming%d.pepa" replicas;
          kind = Service.Protocol.Pepa;
          source = Scenarios.Roaming.pepa_source ~replicas;
          options = symmetry;
          rate_literal = "(transmit, 4.0)";
          balanced = [ "connect"; "disconnect"; "transmit" ];
        })
      [ 8; 9; 10 ]
  @ List.map
      (fun capacity ->
        {
          name = Printf.sprintf "tandem%d.pepa" capacity;
          kind = Service.Protocol.Pepa;
          source = Scenarios.Tandem.source ~stations:3 ~capacity;
          options = defaults;
          rate_literal = "arrive = 1.5;";
          balanced = [ "arrive"; "depart"; "move1"; "move2" ];
        })
      [ 9; 10; 11; 12 ]

let solve_request m =
  Service.Protocol.Solve { kind = m.kind; name = m.name; source = m.source; options = m.options }

(* The number inside [m.rate_literal]. *)
let literal_bounds m =
  let lit = m.rate_literal in
  let is_num c = (c >= '0' && c <= '9') || c = '.' in
  let i0 = ref 0 in
  while not (is_num lit.[!i0]) do
    incr i0
  done;
  let i1 = ref !i0 in
  while !i1 < String.length lit && is_num lit.[!i1] do
    incr i1
  done;
  (!i0, !i1)

let base_rate m =
  let i0, i1 = literal_bounds m in
  float_of_string (String.sub m.rate_literal i0 (i1 - i0))

(* [m] with the number inside [m.rate_literal] replaced by [v]. *)
let perturb m v =
  let lit = m.rate_literal in
  let i0, i1 = literal_bounds m in
  let lit' = String.sub lit 0 i0 ^ Printf.sprintf "%.6g" v ^ String.sub lit i1 (String.length lit - i1) in
  let n = String.length lit and src = m.source in
  let rec find i = if String.sub src i n = lit then i else find (i + 1) in
  let at = find 0 in
  { m with source = String.sub src 0 at ^ lit' ^ String.sub src (at + n) (String.length src - at - n) }

let sweep_model ~assets =
  {
    name = "roaming.pepa";
    kind = Service.Protocol.Pepa;
    source = read_file (Filename.concat assets "roaming.pepa");
    options = symmetry;
    rate_literal = "connect_r = 1.0;";
    balanced = [ "connect"; "disconnect"; "transmit" ];
  }

let sweep_points = 8

(* How many cold models a method change may reach back over: recent
   enough to still be cached, whatever the two connections'
   interleaving. *)
let method_window = 3

(* Every block of 20 requests holds exactly 12 cached repeats, 3 method
   changes, 4 cold models and 1 sweep, in seeded order, so every run
   has the same mix and only the order depends on the seed. *)
let block = [ (Cached, 12); (Method, 3); (Cold, 4); (Sweep, 1) ]

(* A method change needs a cold model loaded before it and not yet
   re-solved: move each one that comes too early behind the next cold
   model of its block. *)
let schedule st =
  let a = Array.of_list (shuffle st (List.concat_map (fun (c, k) -> List.init k (fun _ -> c)) block)) in
  let eligible = ref 0 in
  Array.iteri
    (fun i c ->
      match c with
      | Cold -> eligible := min method_window (!eligible + 1)
      | Method when !eligible = 0 ->
          let j = ref (i + 1) in
          while a.(!j) <> Cold do
            incr j
          done;
          a.(!j) <- Method;
          a.(i) <- Cold;
          eligible := 1
      | Method -> decr eligible
      | Cached | Sweep -> ())
    a;
  Array.to_list a

(* The daemon's LRU must keep the whole hot set: replay the sequence
   (after priming) through an LRU of the daemon's default 32 entries,
   with a margin for the reordering two connections can cause. *)
let check_hot_set_stays_cached hot requests =
  let capacity = 32 - 4 in
  let key r = (r.model.kind, r.model.source) in
  let lru = ref (List.map (fun m -> (m.kind, m.source)) hot) in
  List.iter
    (fun r ->
      let k = key r in
      if r.cls = Cached && not (List.mem k !lru) then
        failwith "daemon_mix: the hot set does not fit the daemon's cache";
      lru := List.filteri (fun i _ -> i < capacity) (k :: List.filter (( <> ) k) !lru))
    requests

(* The seeded request sequence: 60% cached repeats of the hot set in
   rotation, 15% bicgstab re-solves of a recent cold model, 20% cold
   models (the pool in rotation, one rate redrawn within 10% of its
   value), 5% eight-point warm-started sweeps of roaming.pepa under
   symmetry over an evenly spaced grid scaled by up to 10%. *)
let sequence ~seed ~assets n =
  let st = rng ~seed "daemon_mix" in
  let hot = pool ~assets in
  (* Each pass over [items] is a fresh seeded permutation. *)
  let cycle items =
    let order = ref [] in
    fun () ->
      if !order = [] then order := shuffle st items;
      let x = List.hd !order in
      order := List.tl !order;
      x
  in
  let next_hot = cycle hot and next_cold = cycle hot in
  let used = Hashtbl.create 64 in
  let rec fresh base =
    let v = Float.round (base *. (0.9 +. Random.State.float st 0.2) *. 1e4) /. 1e4 in
    if Hashtbl.mem used v || v = base then fresh base
    else begin
      Hashtbl.add used v ();
      v
    end
  in
  let recent_cold = ref [] in
  let sweep = sweep_model ~assets in
  let request cls m = { cls; model = m; request = solve_request m } in
  let classes = ref [] in
  let next_cls () =
    if !classes = [] then classes := schedule st;
    let c = List.hd !classes in
    classes := List.tl !classes;
    c
  in
  let requests =
    List.init n (fun _ ->
        match next_cls () with
        | Cached -> request Cached (next_hot ())
        | Cold ->
            let m = next_cold () in
            let m = perturb m (fresh (base_rate m)) in
            recent_cold := List.filteri (fun i _ -> i < method_window) (m :: !recent_cold);
            request Cold m
        | Method -> (
            match !recent_cold with
            | m :: rest ->
                recent_cold := rest;
                request Method
                  { m with options = { m.options with Service.Protocol.method_ = Some Markov.Steady.Bicgstab } }
            | [] -> assert false)
        | Sweep ->
            let shift = fresh 1.0 in
            let values = List.init sweep_points (fun i -> Float.round (shift *. (0.5 +. (0.5 *. float_of_int i)) *. 1e4) /. 1e4) in
            {
              cls = Sweep;
              model = sweep;
              request =
                Service.Protocol.Sweep
                  {
                    kind = sweep.kind;
                    name = sweep.name;
                    source = sweep.source;
                    options = sweep.options;
                    axes = [ { Service.Protocol.target = `Rate "connect_r"; values } ];
                    backend = Service.Protocol.Exact;
                    warm_start = true;
                  };
            })
  in
  check_hot_set_stays_cached hot requests;
  requests
