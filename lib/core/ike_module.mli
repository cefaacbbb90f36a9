(** The IKE control module (§II-F, figure 1): provides the "esp-keys"
    dependency. When the local ESP module asks for keying material towards
    a peer, IKE negotiates SPIs and keys with the remote IKE over the data
    plane (UDP port 500, retransmitting until acknowledged) — so key
    exchange completes only once the underlying IP path works, and the NM
    never sees a key. *)

val make : env:Module_impl.env -> mref:Ids.t -> unit -> Module_impl.t
(** Also binds the IKE UDP port (500) on the device. *)
