(** The ESP (IPsec) protocol module — figure 1's example of a module with
    an external dependency. Unlike GRE it does not negotiate parameters
    with its peer: its up pipe declares the "esp-keys" dependency, which
    the NM resolves to a control module (IKE, §II-F); the module waits for
    the keys and then emits the device-level tunnel command. Advertises
    confidentiality/integrity, which the NM uses to satisfy secure goals. *)

val make : env:Module_impl.env -> mref:Ids.t -> unit -> Module_impl.t
