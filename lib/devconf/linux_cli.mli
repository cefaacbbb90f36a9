(** The "today" baseline: an interpreter for the Linux-style configuration
    commands of figures 7(a) and 8(a) — insmod/modprobe, ip
    tunnel/rule/route, ifconfig, sysctl writes via echo, and the mpls-linux
    userland commands — executed against a {!Netsim.Device.t}. *)

exception Error of string

val exec : Netsim.Device.t -> string list -> string
(** [exec dev argv] runs one command, given as the argument vector a
    program would hand the tool's [execve]; returns its stdout (e.g. the
    NHLFE key line of [mpls nhlfe add]). Raises {!Error} on unknown
    commands, missing kernel modules, or bad arguments. *)

val nhlfe_key : string -> int
(** The key in the line [mpls nhlfe add] prints
    (["NHLFE entry key 0x0000002a mtu 1500 propagate_ttl\n"] gives 42):
    how a module reads back the key the Fig. 8(a) script cuts out with
    [grep | cut]. Raises {!Error} on any other text. *)

val run_script : Netsim.Device.t -> string -> Shell.t
(** Runs a whole shell-syntax script; returns the shell (for variables). *)

val module_of_path : string -> string
(** ["/lib/modules/.../ip_gre.ko"] -> ["ip_gre"]. *)
