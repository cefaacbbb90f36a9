(** The VLAN protocol module on layer-2 switches (figure 9).

    The customer-side pipe is peered with the far switch's VLAN module and
    the trunk-side pipes with adjacent VLAN modules; the ingress module
    allocates a VLAN id and propagates it hop by hop, then every module
    programs its ports (QinQ tunnel towards the customer, tagged trunks in
    between, MTU raised for the extra tag) — the state the CatOS script of
    figure 9(a) writes by hand. Teardown parks customer ports in an
    isolated holding VLAN. *)

val make : env:Module_impl.env -> mref:Ids.t -> unit -> Module_impl.t
