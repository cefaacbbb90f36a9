(* Dedicated path-finder tests: enumeration on chains of varying length,
   the domain-pruning ablation, encapsulation-balance invariants, goal
   error cases, the best-first planner against the chooser over the
   enumeration, and a property test that configures randomly chosen paths
   end to end. *)

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
    ]
