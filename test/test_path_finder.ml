(* Dedicated path-finder tests: enumeration on chains of varying length
   (up to a 160-router chain configured and pinged), the domain-pruning
   ablation, encapsulation-balance invariants, goal error cases, the
   best-first planner against the chooser over the enumeration, the
   traversal order and both searches' exact work, a property test that
   configures randomly chosen paths end to end, the bounded searches
   behind failed goals and recovery, and the topology's potential-graph
   index against topologies rebuilt from scratch. *)

open Conman

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

(* --- invariants over enumerated paths --------------------------------------- *)

(* A path must be encapsulation-balanced: every pushed header is popped by a
   module of the same protocol, in LIFO order, with the base headers
   restored at the end. *)
let balanced (p : Path_finder.path) =
  let ok = ref true in
  let stack = ref [] in
  let eth_missing = ref false in
  List.iter
    (fun (v : Path_finder.visit) ->
      match v.Path_finder.v_action with
      | Path_finder.Push ->
          if v.Path_finder.v_chain = Path_finder.base_eth then
            (* restoring the customer frame: only valid at the very end *)
            eth_missing := false
          else stack := v.Path_finder.v_chain :: !stack
      | Path_finder.Pop -> (
          if v.Path_finder.v_chain = Path_finder.base_eth then eth_missing := true
          else
            match !stack with
            | top :: rest when top = v.Path_finder.v_chain -> stack := rest
            | _ -> ok := false)
      | Path_finder.Inspect -> ())
    p.Path_finder.visits;
  !ok && !stack = [] && not !eth_missing

let all_paths v = Nm.find_paths v.Scenarios.nm v.Scenarios.goal

let test_all_paths_balanced () =
  let v = Scenarios.build_vpn () in
  List.iter
    (fun p -> check tbool ("balanced: " ^ Path_finder.signature p) true (balanced p))
    (all_paths v)

let test_paths_start_and_end_at_goal () =
  let v = Scenarios.build_vpn () in
  List.iter
    (fun (p : Path_finder.path) ->
      let first = List.hd p.Path_finder.visits and last = List.hd (List.rev p.Path_finder.visits) in
      check tbool "starts at a" true (Ids.equal first.Path_finder.v_mod v.Scenarios.goal.Path_finder.g_from);
      check tbool "ends at f" true (Ids.equal last.Path_finder.v_mod v.Scenarios.goal.Path_finder.g_to))
    (all_paths v)

let test_no_module_revisits () =
  let v = Scenarios.build_vpn () in
  List.iter
    (fun (p : Path_finder.path) ->
      let mods = List.map (fun v -> v.Path_finder.v_mod) p.Path_finder.visits in
      check tint "no revisits" (List.length mods) (List.length (List.sort_uniq compare mods)))
    (all_paths v)

(* --- chains of varying length ------------------------------------------------- *)

let test_chain_path_counts () =
  (* path counts grow with the number of MPLS-capable segments; the n=3
     chain reproduces the paper's figure-4 testbed exactly *)
  let count n =
    let c = Scenarios.build_chain n in
    List.length (Nm.find_paths c.Scenarios.cnm c.Scenarios.cgoal)
  in
  check tint "n=2" 6 (count 2);
  check tint "n=3 (the paper's 9)" 9 (count 3);
  check tbool "monotone growth" true (count 4 > 9 && count 5 > count 4)

let test_chain_pure_paths_exist () =
  List.iter
    (fun n ->
      let c = Scenarios.build_chain n in
      let paths = Nm.find_paths c.Scenarios.cnm c.Scenarios.cgoal in
      check tbool "pure gre exists" true (List.exists Scenarios.pure_gre paths);
      check tbool "pure mpls exists" true (List.exists Scenarios.pure_mpls paths);
      check tbool "pure ipip exists" true (List.exists Scenarios.pure_ipip paths))
    [ 2; 4; 6 ]

let test_chain_past_the_octet () =
  (* core link i = 156 is the first past 204.9.255.0/30: n = 158 is the
     shortest chain that needs it, n = 160 has three such links; the LSP
     crosses every router *)
  let c = Scenarios.build_chain 160 in
  match Nm.achieve c.Scenarios.cnm c.Scenarios.cgoal with
  | Error e -> Alcotest.fail e
  | Ok (_, path, _) ->
      check tbool "the MPLS path" true (Scenarios.pure_mpls path);
      check tbool "no errors" true (Nm.errors c.Scenarios.cnm = []);
      check tbool "pings both ways" true (Scenarios.chain_reachable c)

(* --- ablation: domain pruning ---------------------------------------------------- *)

let test_domain_pruning_ablation () =
  let v = Scenarios.build_vpn () in
  let topo = Nm.topology v.Scenarios.nm in
  let pruned = Path_finder.find topo v.Scenarios.goal in
  let unpruned = Path_finder.find ~prune_domains:false topo v.Scenarios.goal in
  check tint "pruned = 9" 9 (List.length pruned);
  check tbool "pruning removes invalid paths" true
    (List.length unpruned > List.length pruned);
  (* every pruned path is also found without pruning (pruning only removes) *)
  let sigs = List.map Path_finder.signature unpruned in
  List.iter
    (fun p -> check tbool "subset" true (List.mem (Path_finder.signature p) sigs))
    pruned

(* --- diamond: alternate routes + the hierarchical traversal ------------------------ *)

let test_diamond_full_vs_hierarchical () =
  let d = Scenarios.build_diamond () in
  let topo = Nm.topology d.Scenarios.dnm in
  let full = Path_finder.find topo d.Scenarios.dgoal in
  let hier = Path_finder.find_hierarchical topo d.Scenarios.dgoal in
  (* two parallel cores double the options; the hierarchical two-step
     traversal (the paper's scalability fix) commits to one device walk *)
  check tint "full search finds both cores" 18 (List.length full);
  check tint "hierarchical restricts to one walk" 9 (List.length hier);
  let fsigs = List.map Path_finder.signature full in
  List.iter
    (fun p -> check tbool "hierarchical subset of full" true (List.mem (Path_finder.signature p) fsigs))
    hier

let test_diamond_both_cores_work () =
  (* configure one path through each core; both must carry traffic *)
  List.iter
    (fun core_mpls ->
      let d = Scenarios.build_diamond () in
      let paths = Nm.find_paths d.Scenarios.dnm d.Scenarios.dgoal in
      let p =
        List.find
          (fun p ->
            Scenarios.pure_mpls p
            && List.exists (fun v -> Ids.short v.Path_finder.v_mod = core_mpls) p.Path_finder.visits)
          paths
      in
      let _ = Nm.configure_path d.Scenarios.dnm d.Scenarios.dgoal p in
      check tbool ("via " ^ core_mpls) true
        (Nm.errors d.Scenarios.dnm = [] && Scenarios.diamond_reachable d))
    [ "p1"; "p2" ]

(* --- best-first planning = chooser over the enumeration ---------------------------- *)

(* The trade-off sets the wall-clock benchmark draws goals from; they reach
   the generated script through the GRE pipes. *)
let tradeoff_sets =
  [ []; [ "in-order-delivery" ]; [ "low-error-rate" ]; [ "in-order-delivery"; "low-error-rate" ] ]

let devices_of (p : Path_finder.path) =
  List.sort_uniq compare (List.map (fun v -> v.Path_finder.v_mod.Ids.dev) p.Path_finder.visits)

(* What the NM ships. The path record is left out: its v_chain numbers come
   from a traversal-global counter, differ once branches are pruned, and
   serve the generator only as keys. *)
let script_body topo goal path =
  let s = Script_gen.generate topo goal path in
  (s.Script_gen.prims, s.Script_gen.per_device, s.Script_gen.reporter)

(* For every trade-off set and every filter the NM applies (none, the
   monitor's exclude of the paths tried so far, avoiding each device of
   the optimum in turn, endpoints included), [best] must return the
   signature and the script [choose] picks from the filtered enumeration,
   or no path on both sides. Excluding the top 1, 2, 3, 4 paths in turn
   moves the optimum deeper into the traversal, behind incumbents the
   bound prunes against. *)
let check_best_matches_choose name topo goal =
  let all = Path_finder.find topo goal in
  let agree label ~exclude ~avoid =
    let viable =
      List.filter
        (fun p ->
          (not (List.mem (Path_finder.signature p) exclude))
          && not (List.exists (fun d -> List.mem d avoid) (devices_of p)))
        all
    in
    let expected = Path_finder.choose topo viable in
    List.iter
      (fun tradeoffs ->
        let goal = { goal with Path_finder.g_tradeoffs = tradeoffs } in
        let label = Printf.sprintf "%s, %s, tradeoffs [%s]" name label (String.concat "+" tradeoffs) in
        let got, search =
          Path_finder.best ~exclude ~usable:(fun d -> not (List.mem d avoid)) topo goal
        in
        let sigs = List.map Path_finder.signature viable in
        List.iter
          (fun p ->
            check tbool (label ^ ": completed a viable candidate") true
              (List.mem (Path_finder.signature p) sigs))
          search.Path_finder.completed;
        match (expected, got) with
        | None, None -> ()
        | Some e, Some g ->
            check tstr (label ^ ": signature") (Path_finder.signature e) (Path_finder.signature g);
            check tbool (label ^ ": script body") true
              (script_body topo goal e = script_body topo goal g);
            check tbool (label ^ ": the choice is among the completed") true
              (List.exists (fun p -> p == g) search.Path_finder.completed)
        | Some _, None -> Alcotest.failf "%s: best found no path" label
        | None, Some _ -> Alcotest.failf "%s: best found a path the chooser rejects" label)
      tradeoff_sets
  in
  agree "no filter" ~exclude:[] ~avoid:[];
  let rec exclude_top tried r =
    if r <= 4 then
      let rest = List.filter (fun p -> not (List.mem (Path_finder.signature p) tried)) all in
      match Path_finder.choose topo rest with
      | None -> ()
      | Some next ->
          let tried = Path_finder.signature next :: tried in
          agree (Printf.sprintf "exclude the top %d" r) ~exclude:tried ~avoid:[];
          exclude_top tried (r + 1)
  in
  exclude_top [] 1;
  match Path_finder.choose topo all with
  | None -> Alcotest.failf "%s: no path at all" name
  | Some opt -> List.iter (fun d -> agree ("avoid " ^ d) ~exclude:[] ~avoid:[ d ]) (devices_of opt)

let test_best_matches_choose () =
  let v = Scenarios.build_vpn () in
  check_best_matches_choose "vpn" (Nm.topology v.Scenarios.nm) v.Scenarios.goal;
  let s = Scenarios.build_vpn ~secure:true () in
  check_best_matches_choose "secure vpn" (Nm.topology s.Scenarios.nm) s.Scenarios.goal;
  let d = Scenarios.build_diamond () in
  check_best_matches_choose "diamond" (Nm.topology d.Scenarios.dnm) d.Scenarios.dgoal;
  for n = 2 to 12 do
    let c = Scenarios.build_chain n in
    check_best_matches_choose (Printf.sprintf "chain n=%d" n) (Nm.topology c.Scenarios.cnm)
      c.Scenarios.cgoal
  done

let test_best_prunes () =
  (* the point of the bound: on the n=11 chain (2049 candidates) the
     planner completes a handful of paths and expands a fraction of the
     enumerator's states *)
  let c = Scenarios.build_chain 11 in
  let topo = Nm.topology c.Scenarios.cnm in
  let full = Path_finder.enumerate topo c.Scenarios.cgoal in
  let _, s = Path_finder.best topo c.Scenarios.cgoal in
  check tint "enumerator candidates" 2049 (List.length full.Path_finder.completed);
  check tbool "a handful completed" true (List.length s.Path_finder.completed <= 4);
  check tbool "under a tenth of the states" true (s.Path_finder.expanded * 10 < full.Path_finder.expanded)

(* The bound is admissible: from every visit of every enumerated path, the
   pipes the rest of the path instantiates are at least the bound of the
   visited module — so pruning on it can never cut off a sane path. *)
let check_bound_admissible name topo goal =
  let lb = Path_finder.bounds topo goal in
  let rec suffixes = function [] -> [] | _ :: rest as l -> l :: suffixes rest in
  List.iter
    (fun (p : Path_finder.path) ->
      List.iter
        (fun visits ->
          let v = List.hd visits in
          let label =
            Printf.sprintf "%s: %s at %s" name (Path_finder.signature p)
              (Ids.short v.Path_finder.v_mod)
          in
          match lb v.Path_finder.v_mod with
          | None -> Alcotest.failf "%s: no bound" label
          | Some b ->
              check tbool (label ^ ": bound <= pipes still to come") true
                (b <= Path_finder.pipe_count { Path_finder.visits }))
        (suffixes p.Path_finder.visits))
    (Path_finder.find topo goal)

let test_bound_admissible () =
  let v = Scenarios.build_vpn () in
  check_bound_admissible "vpn" (Nm.topology v.Scenarios.nm) v.Scenarios.goal;
  let s = Scenarios.build_vpn ~secure:true () in
  check_bound_admissible "secure vpn" (Nm.topology s.Scenarios.nm) s.Scenarios.goal;
  let d = Scenarios.build_diamond () in
  check_bound_admissible "diamond" (Nm.topology d.Scenarios.dnm) d.Scenarios.dgoal;
  for n = 2 to 8 do
    let c = Scenarios.build_chain n in
    check_bound_admissible (Printf.sprintf "chain n=%d" n) (Nm.topology c.Scenarios.cnm)
      c.Scenarios.cgoal
  done

let test_best_search_size () =
  (* the module-level bound keeps the search near the optimal path: a few
     hundred states on chains whose enumeration takes 54 327 and 434 246 *)
  List.iter
    (fun (n, most) ->
      let c = Scenarios.build_chain n in
      let _, s = Path_finder.best (Nm.topology c.Scenarios.cnm) c.Scenarios.cgoal in
      check tbool
        (Printf.sprintf "n=%d: %d states expanded, at most %d" n s.Path_finder.expanded most)
        true
        (s.Path_finder.expanded <= most))
    [ (11, 500); (14, 800) ]

(* --- traversal order ("order") --------------------------------------------------- *)

(* The enumerator's output, in order, and both searches' exact work: the
   traversal order decides which of equal-cost paths [best] keeps and how
   many states either search expands, which the bounds above cannot see. *)

let vpn_paths =
  [
    "a, g, h, b, c, i, d, e, j, k, f";
    "a, g, h, b, c, i, p, d, e, q, j, k, f";
    "a, g, h, o, b, c, p, i, d, e, j, k, f";
    "a, g, h, o, b, c, p, d, e, q, j, k, f";
    "a, g, l, h, b, c, i, d, e, j, n, k, f";
    "a, g, l, h, b, c, i, p, d, e, q, j, n, k, f";
    "a, g, l, h, o, b, c, p, i, d, e, j, n, k, f";
    "a, g, l, h, o, b, c, p, d, e, q, j, n, k, f";
    "a, g, o, b, c, p, d, e, q, k, f";
  ]

let diamond_paths =
  [
    "a, g, h, b1, c1, i1, d1, e1, j, k, f";
    "a, g, h, b1, c1, i1, p1, d1, e1, q, j, k, f";
    "a, g, h, b2, c2, i2, d2, e2, j, k, f";
    "a, g, h, b2, c2, i2, p2, d2, e2, q, j, k, f";
    "a, g, h, o, b1, c1, p1, i1, d1, e1, j, k, f";
    "a, g, h, o, b1, c1, p1, d1, e1, q, j, k, f";
    "a, g, h, o, b2, c2, p2, i2, d2, e2, j, k, f";
    "a, g, h, o, b2, c2, p2, d2, e2, q, j, k, f";
    "a, g, l, h, b1, c1, i1, d1, e1, j, n, k, f";
    "a, g, l, h, b1, c1, i1, p1, d1, e1, q, j, n, k, f";
    "a, g, l, h, b2, c2, i2, d2, e2, j, n, k, f";
    "a, g, l, h, b2, c2, i2, p2, d2, e2, q, j, n, k, f";
    "a, g, l, h, o, b1, c1, p1, i1, d1, e1, j, n, k, f";
    "a, g, l, h, o, b1, c1, p1, d1, e1, q, j, n, k, f";
    "a, g, l, h, o, b2, c2, p2, i2, d2, e2, j, n, k, f";
    "a, g, l, h, o, b2, c2, p2, d2, e2, q, j, n, k, f";
    "a, g, o, b1, c1, p1, d1, e1, q, k, f";
    "a, g, o, b2, c2, p2, d2, e2, q, k, f";
  ]

let test_find_order () =
  let v = Scenarios.build_vpn () in
  check (Alcotest.list tstr) "vpn" vpn_paths
    (List.map Path_finder.signature (Path_finder.find (Nm.topology v.Scenarios.nm) v.Scenarios.goal));
  let d = Scenarios.build_diamond () in
  check (Alcotest.list tstr) "diamond" diamond_paths
    (List.map Path_finder.signature (Path_finder.find (Nm.topology d.Scenarios.dnm) d.Scenarios.dgoal))

(* (name, topology, goal) for the VPN, the diamond and chains n = 8, 11, 14 *)
let testbeds () =
  let v = Scenarios.build_vpn () and d = Scenarios.build_diamond () in
  ("vpn", Nm.topology v.Scenarios.nm, v.Scenarios.goal)
  :: ("diamond", Nm.topology d.Scenarios.dnm, d.Scenarios.dgoal)
  :: List.map
       (fun n ->
         let c = Scenarios.build_chain n in
         (Printf.sprintf "chain n=%d" n, Nm.topology c.Scenarios.cnm, c.Scenarios.cgoal))
       [ 8; 11; 14 ]

let test_best_states () =
  List.iter2
    (fun (name, topo, goal) states ->
      check tint name states (snd (Path_finder.best topo goal)).Path_finder.expanded)
    (testbeds ()) [ 70; 135; 250; 406; 598 ]

let test_enumerate_states () =
  List.iter2
    (fun (name, topo, goal) states ->
      check tint name states (Path_finder.enumerate topo goal).Path_finder.expanded)
    (List.tl (testbeds ()))
    [ 1_211; 6_824; 54_327; 434_246 ]

(* --- goal error cases ------------------------------------------------------------- *)

let test_no_path_outside_scope () =
  let v = Scenarios.build_vpn () in
  let goal = { v.Scenarios.goal with Path_finder.g_scope = [ "id-A" ] } in
  check tbool "no path without the core in scope" true (Nm.find_paths v.Scenarios.nm goal = []);
  match Nm.achieve ~configure:false v.Scenarios.nm goal with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "achieve must fail"

let test_no_path_without_domains () =
  (* if the NM lacks domain knowledge for the IP modules, no path can place
     them (the paper's point that the NM owns address assignment) *)
  let v = Scenarios.build_vpn () in
  Topology.set_domains (Nm.topology v.Scenarios.nm) ~module_domains:[]
    ~domain_prefixes:[ ("C1-S1", "10.0.1.0/24"); ("C1-S2", "10.0.2.0/24") ];
  check tbool "no placeable path" true (Nm.find_paths v.Scenarios.nm v.Scenarios.goal = [])

let test_achieve_without_configure_is_pure () =
  let v = Scenarios.build_vpn () in
  (match Nm.achieve ~configure:false v.Scenarios.nm v.Scenarios.goal with
  | Error e -> Alcotest.fail e
  | Ok _ -> ());
  check tbool "nothing configured" false (Scenarios.vpn_reachable v)

(* --- exhaustive: every enumerated path, once configured, carries traffic ---------- *)

let test_every_path_configures () =
  (* all 32 paths across chains of 2..4 routers: enumerate, configure each
     on a fresh testbed, verify bidirectional reachability *)
  List.iter
    (fun n ->
      let total =
        let c = Scenarios.build_chain n in
        List.length (Nm.find_paths c.Scenarios.cnm c.Scenarios.cgoal)
      in
      for i = 0 to total - 1 do
        let c = Scenarios.build_chain n in
        let paths = Nm.find_paths c.Scenarios.cnm c.Scenarios.cgoal in
        let path = List.nth paths i in
        let _ = Nm.configure_path c.Scenarios.cnm c.Scenarios.cgoal path in
        check tbool
          (Printf.sprintf "n=%d path %s" n (Path_finder.signature path))
          true
          (Nm.errors c.Scenarios.cnm = [] && Scenarios.chain_reachable c)
      done)
    [ 2; 3; 4 ]

(* ... and a sampled property for longer chains *)
let prop_any_path_configures =
  QCheck.Test.make ~name:"sampled n=5/6 paths configure to a working VPN" ~count:8
    (QCheck.make
       ~print:(fun (n, pick) -> Printf.sprintf "n=%d pick=%d" n pick)
       QCheck.Gen.(pair (int_range 5 6) (int_bound 1000)))
    (fun (n, pick) ->
      let c = Scenarios.build_chain n in
      let paths = Nm.find_paths c.Scenarios.cnm c.Scenarios.cgoal in
      let path = List.nth paths (pick mod List.length paths) in
      let _ = Nm.configure_path c.Scenarios.cnm c.Scenarios.cgoal path in
      Nm.errors c.Scenarios.cnm = [] && Scenarios.chain_reachable c)

(* --- bounded searches behind failed goals and recovery ---------------------------- *)

(* A failed goal names its blockers with a second bounded search, never an
   enumeration: on chain n = 18 with the middle router down, the failing
   [best] plus the rerun expand at most twice what [best] expands on the
   intact chain, where the enumerator would walk all 2^18 + 1 sane paths.
   Chain routers are id-R1 .. id-Rn. *)
let test_failed_goal_bounded () =
  let n = 18 in
  let c = Scenarios.build_chain n in
  let topo = Nm.topology c.Scenarios.cnm and goal = c.Scenarios.cgoal in
  let _, intact = Path_finder.best topo goal in
  let mid = Printf.sprintf "id-R%d" (n / 2) in
  Topology.set_reachable topo mid false;
  let none, failed = Path_finder.best ~usable:(Topology.is_reachable topo) topo goal in
  check tbool "no usable path" true (none = None);
  let blocking, rerun = Path_finder.blockers ~down:(Topology.unreachable topo) topo goal in
  check (Alcotest.option (Alcotest.list tstr)) "the middle router blocks" (Some [ mid ]) blocking;
  let states = failed.Path_finder.expanded + rerun.Path_finder.expanded in
  check tbool
    (Printf.sprintf "%d states, at most 2 x %d" states intact.Path_finder.expanded)
    true
    (states <= 2 * intact.Path_finder.expanded);
  (match Nm.achieve c.Scenarios.cnm goal with
  | Ok _ -> Alcotest.fail "achieve must fail"
  | Error e -> check tstr "the NM names it" ("device unreachable: " ^ mid) e);
  (* with the endpoints' link cut off by scope, nothing down is to blame *)
  let blocked = { goal with Path_finder.g_scope = [ goal.Path_finder.g_from.Ids.dev; mid ] } in
  check tbool "no path even with the router" true
    (fst (Path_finder.blockers ~down:[ mid ] topo blocked) = None)

(* Chain numbers renumbered by first appearance: both searches number
   pushed headers from a traversal-global counter. *)
let canonical (p : Path_finder.path) =
  let seen = Hashtbl.create 8 in
  List.map
    (fun (v : Path_finder.visit) ->
      let c = v.Path_finder.v_chain in
      if c <= Path_finder.base_ip then v
      else
        let k =
          match Hashtbl.find_opt seen c with
          | Some k -> k
          | None ->
              let k = 2 + Hashtbl.length seen in
              Hashtbl.add seen c k;
              k
        in
        { v with Path_finder.v_chain = k })
    p.Path_finder.visits

(* For every enumerated path, following its signature returns the
   enumerator's first path with that signature: same visits up to chain
   numbering, same script. *)
let check_follow name topo goal =
  let all = Path_finder.find topo goal in
  List.iter
    (fun p ->
      let sg = Path_finder.signature p in
      let first = List.find (fun q -> Path_finder.signature q = sg) all in
      match Path_finder.follow topo goal sg with
      | None, _ -> Alcotest.failf "%s: %s not followed" name sg
      | Some f, s ->
          check tbool (Printf.sprintf "%s: %s visits" name sg) true (canonical f = canonical first);
          check tbool (Printf.sprintf "%s: %s script" name sg) true
            (script_body topo goal f = script_body topo goal first);
          check tbool (Printf.sprintf "%s: %s completed" name sg) true
            (s.Path_finder.completed = [ f ]))
    all;
  List.iter
    (fun sg ->
      check tbool (Printf.sprintf "%s: no path signed %S" name sg) true
        (fst (Path_finder.follow topo goal sg) = None))
    [ ""; "a, z"; String.concat ", " [ Ids.short goal.Path_finder.g_from; "z" ] ]

let test_follow_matches_find () =
  let v = Scenarios.build_vpn () in
  check_follow "vpn" (Nm.topology v.Scenarios.nm) v.Scenarios.goal;
  let s = Scenarios.build_vpn ~secure:true () in
  check_follow "secure vpn" (Nm.topology s.Scenarios.nm) s.Scenarios.goal;
  let d = Scenarios.build_diamond () in
  check_follow "diamond" (Nm.topology d.Scenarios.dnm) d.Scenarios.dgoal;
  for n = 2 to 8 do
    let c = Scenarios.build_chain n in
    check_follow (Printf.sprintf "chain n=%d" n) (Nm.topology c.Scenarios.cnm) c.Scenarios.cgoal
  done

let test_follow_linear () =
  (* following the planner's path on chain n = 64 walks about the path's
     length, not the planner's search *)
  let c = Scenarios.build_chain 64 in
  let topo = Nm.topology c.Scenarios.cnm in
  match Path_finder.best topo c.Scenarios.cgoal with
  | None, _ -> Alcotest.fail "no path"
  | Some p, planned ->
      let f, s = Path_finder.follow topo c.Scenarios.cgoal (Path_finder.signature p) in
      check tbool "found" true (Option.map canonical f = Some (canonical p));
      let visits = List.length p.Path_finder.visits in
      check tbool
        (Printf.sprintf "%d states for %d visits (best: %d)" s.Path_finder.expanded visits
           planned.Path_finder.expanded)
        true
        (s.Path_finder.expanded <= 2 * visits)

(* --- the topology's potential graph ("index") ---------------------------------------- *)

(* The data a scenario's discovery left in its NM's topology. *)
type base = {
  b_devices : (string * (string * string * string) list * (Ids.t * Abstraction.t) list) list;
  b_domains : (Ids.t * string) list;
  b_prefixes : (string * string) list;
  b_goal : Path_finder.goal;
  b_modules : Ids.t list;
}

let base_of topo goal =
  let b_devices =
    List.map
      (fun (d : Topology.device_info) ->
        (d.Topology.di_id, d.Topology.di_links, d.Topology.di_modules))
      topo.Topology.devices
  in
  {
    b_devices;
    b_domains = topo.Topology.module_domains;
    b_prefixes = topo.Topology.domain_prefixes;
    b_goal = goal;
    b_modules = List.concat_map (fun (_, _, ms) -> List.map fst ms) b_devices;
  }

(* The same data recorded into a fresh topology, in the same device order. *)
let rebuilt topo =
  let fresh = Topology.create () in
  List.iter
    (fun (d : Topology.device_info) ->
      Topology.record_hello fresh ~src:d.Topology.di_id d.Topology.di_links;
      Topology.record_potential fresh ~src:d.Topology.di_id d.Topology.di_modules;
      Topology.set_reachable fresh d.Topology.di_id d.Topology.di_reachable)
    topo.Topology.devices;
  Topology.set_domains fresh ~module_domains:topo.Topology.module_domains
    ~domain_prefixes:topo.Topology.domain_prefixes;
  fresh

(* What the searches answer on [topo]: [best] with the NM's usable filter
   (path, states, completed), the enumeration, and every module's bound.
   A missing root raises; both sides must raise alike. *)
let observe b topo ~avoid =
  let attempt f = match f () with x -> Ok x | exception Failure e -> Error e in
  let usable d = Topology.is_reachable topo d && not (List.mem d avoid) in
  ( attempt (fun () -> Path_finder.best ~usable topo b.b_goal),
    attempt (fun () -> Path_finder.enumerate topo b.b_goal),
    attempt (fun () -> List.map (Path_finder.bounds ~usable topo b.b_goal) b.b_modules) )

let pick rng l = List.nth l (Random.State.int rng (List.length l))
let chance rng p = Random.State.float rng 1.0 < p

let shuffle rng l =
  List.map snd (List.sort compare (List.map (fun x -> (Random.State.bits rng, x)) l))

(* A module list with modules dropped, reordered or given changed
   abstractions; dropped modules come back with the next full list. *)
let mutated_modules rng mods =
  if chance rng 0.3 then mods
  else
    let mods = List.filter (fun _ -> not (chance rng 0.2)) mods in
    let mods = if chance rng 0.4 then shuffle rng mods else mods in
    List.map
      (fun (m, (a : Abstraction.t)) ->
        if not (chance rng 0.2) then (m, a)
        else
          match Random.State.int rng 3 with
          | 0 -> (m, { a with Abstraction.fast_forwarding = not a.Abstraction.fast_forwarding })
          | 1 ->
              let switch = List.filter (fun _ -> chance rng 0.6) a.Abstraction.switch in
              (m, { a with Abstraction.switch })
          | _ -> (m, { a with Abstraction.physical = [] }))
      mods

(* A domain list with entries dropped, reordered, or shadowed by an
   earlier entry naming another module's domain. *)
let mutated_domains rng doms =
  if chance rng 0.3 || doms = [] then doms
  else
    let doms = List.filter (fun _ -> not (chance rng 0.15)) doms in
    let doms = if chance rng 0.4 then shuffle rng doms else doms in
    if chance rng 0.5 && doms <> [] then (fst (pick rng doms), snd (pick rng doms)) :: doms
    else doms

let step rng b topo =
  let devs = List.map (fun (d, _, _) -> d) b.b_devices @ [ "id-X1"; "id-X2" ] in
  match Random.State.int rng 4 with
  | 0 ->
      let d, _, mods = pick rng b.b_devices in
      Topology.record_potential topo ~src:d (mutated_modules rng mods)
  | 1 ->
      Topology.set_domains topo ~module_domains:(mutated_domains rng b.b_domains)
        ~domain_prefixes:b.b_prefixes
  | 2 ->
      let d = pick rng devs in
      let links =
        match List.find_opt (fun (d', _, _) -> d' = d) b.b_devices with
        | Some (_, links, _) -> if chance rng 0.5 then List.rev links else links
        | None -> []
      in
      Topology.record_hello topo ~src:d links
  | _ -> Topology.set_reachable topo (pick rng devs) (chance rng 0.5)

(* Seeds a topology with a prefix of the base's devices in a random order. *)
let seed_topology rng b topo =
  List.iter
    (fun (d, links, mods) ->
      if chance rng 0.85 then begin
        Topology.record_hello topo ~src:d links;
        Topology.record_potential topo ~src:d (mutated_modules rng mods)
      end)
    (if chance rng 0.5 then b.b_devices else shuffle rng b.b_devices);
  Topology.set_domains topo ~module_domains:(mutated_domains rng b.b_domains)
    ~domain_prefixes:b.b_prefixes

(* Random programs on two long-lived NM topologies (a primary and a
   standby): after every step — a showPotential, new domains, a Hello from
   a known or a new device, a reachability change, or [Nm.replicate_to] —
   every search on either must answer exactly as on a topology rebuilt
   from scratch with the same data. Each program also runs its searches
   before it mutates, so a stale index would be in use. *)
let test_index_invalidation () =
  let v = Scenarios.build_vpn () in
  let bases =
    let s = Scenarios.build_vpn ~secure:true () and d = Scenarios.build_diamond () in
    let c = Scenarios.build_chain 3 in
    [
      base_of (Nm.topology v.Scenarios.nm) v.Scenarios.goal;
      base_of (Nm.topology s.Scenarios.nm) s.Scenarios.goal;
      base_of (Nm.topology d.Scenarios.dnm) d.Scenarios.dgoal;
      base_of (Nm.topology c.Scenarios.cnm) c.Scenarios.cgoal;
    ]
  in
  let nm id =
    Nm.create ~chan:v.Scenarios.chan ~net:v.Scenarios.tb.Netsim.Testbeds.vpn_net ~my_id:id ()
  in
  for seed = 1 to 500 do
    let rng = Random.State.make [| seed |] in
    let b = pick rng bases in
    let primary = nm "id-NMa" and standby = nm "id-NMb" in
    let topos = [| Nm.topology primary; Nm.topology standby |] in
    seed_topology rng b topos.(0);
    if chance rng 0.5 then seed_topology rng b topos.(1);
    let devs = List.map (fun (d, _, _) -> d) b.b_devices in
    for k = 0 to 5 do
      if k > 0 then
        if chance rng 0.15 then Nm.replicate_to primary ~standby
        else step rng b topos.(Random.State.int rng 2);
      Array.iteri
        (fun i topo ->
          let avoid = if chance rng 0.3 then [ pick rng devs ] else [] in
          if observe b topo ~avoid <> observe b (rebuilt topo) ~avoid then
            Alcotest.failf "seed %d, step %d, topology %d: differs from a rebuilt topology" seed k
              i)
        topos
    done
  done

(* One NM serving 1 000 VPN goals builds its index once; reachability
   changes and avoid lists reuse it, and a showPotential drops it. *)
let test_index_built_once () =
  let v = Scenarios.build_vpn () in
  let nm = v.Scenarios.nm and goal = v.Scenarios.goal in
  let topo = Nm.topology nm in
  for _ = 1 to 1000 do
    match Nm.achieve nm goal with
    | Ok (_, _, script) -> Nm.teardown nm script
    | Error e -> Alcotest.fail e
  done;
  check tint "1000 goals, one build" 1 topo.Topology.graph_builds;
  Topology.set_reachable topo "id-B" false;
  ignore (Path_finder.best ~usable:(Topology.is_reachable topo) topo goal);
  Topology.set_reachable topo "id-B" true;
  ignore (Path_finder.best ~usable:(fun d -> d <> "id-B") topo goal);
  ignore (Path_finder.follow topo goal "a, g, o, b, c, p, d, e, q, k, f");
  check tint "reachability and avoid lists reuse it" 1 topo.Topology.graph_builds;
  Topology.record_potential topo ~src:"id-B" (Topology.modules_of_device topo "id-B");
  ignore (Path_finder.best topo goal);
  ignore (Path_finder.best topo goal);
  check tint "a showPotential drops it once" 2 topo.Topology.graph_builds

let () =
  Alcotest.run "path_finder"
    [
      ( "invariants",
        [
          Alcotest.test_case "encapsulation balance" `Quick test_all_paths_balanced;
          Alcotest.test_case "endpoints" `Quick test_paths_start_and_end_at_goal;
          Alcotest.test_case "no revisits" `Quick test_no_module_revisits;
        ] );
      ( "chains",
        [
          Alcotest.test_case "path counts" `Quick test_chain_path_counts;
          Alcotest.test_case "pure paths exist" `Quick test_chain_pure_paths_exist;
          Alcotest.test_case "n=160 past the address octet" `Quick test_chain_past_the_octet;
        ] );
      ( "ablation",
        [ Alcotest.test_case "domain pruning" `Quick test_domain_pruning_ablation ] );
      ( "diamond",
        [
          Alcotest.test_case "full vs hierarchical" `Quick test_diamond_full_vs_hierarchical;
          Alcotest.test_case "both cores configure" `Quick test_diamond_both_cores_work;
        ] );
      ( "best-first",
        [
          Alcotest.test_case "best = choose over filtered find" `Quick test_best_matches_choose;
          Alcotest.test_case "bound prunes the chain" `Quick test_best_prunes;
          Alcotest.test_case "bound is admissible" `Quick test_bound_admissible;
          Alcotest.test_case "search size on long chains" `Quick test_best_search_size;
        ] );
      ( "order",
        [
          Alcotest.test_case "find order on vpn and diamond" `Quick test_find_order;
          Alcotest.test_case "best expanded states" `Quick test_best_states;
          Alcotest.test_case "enumerate expanded states" `Quick test_enumerate_states;
        ] );
      ( "errors",
        [
          Alcotest.test_case "out of scope" `Quick test_no_path_outside_scope;
          Alcotest.test_case "missing domains" `Quick test_no_path_without_domains;
          Alcotest.test_case "achieve without configure" `Quick test_achieve_without_configure_is_pure;
        ] );
      ( "properties",
        [
          Alcotest.test_case "every path configures (n=2..4)" `Quick test_every_path_configures;
          QCheck_alcotest.to_alcotest prop_any_path_configures;
        ] );
      ( "bounded",
        [
          Alcotest.test_case "a failed goal names its blocker" `Quick test_failed_goal_bounded;
          Alcotest.test_case "follow = first enumerated match" `Quick test_follow_matches_find;
          Alcotest.test_case "follow is linear on a chain" `Quick test_follow_linear;
        ] );
      ( "index",
        [
          Alcotest.test_case "invalidation (500 programs)" `Quick test_index_invalidation;
          Alcotest.test_case "one build for 1000 goals" `Quick test_index_built_once;
        ] );
    ]
