(** Server-style workload profiles.

    The paper evaluates on SPEC and notes: "SPEC is very memory and CPU
    intensive, and thus the overhead for I/O bound applications such as
    servers will be lower" (§6). These profiles make that claim testable:
    request-loop shapes with realistic syscall rates whose syscalls are
    {e blocking I/O} ([sys_io], paying kernel/device time), so a large
    share of wall-clock lives outside the instrumented user code.

    The [servers] benchmark runs the same technique configurations as
    Figures 3/4 over these profiles and prints the dilution factor against
    the SPEC geomeans. The multi-worker deployment — N identical request
    workers on one shared-memory machine — is the same profile run through
    {!Runner.run_with} with [~vcpus:N]. *)

val all : Profile.t list
(** nginx-like (event loop, moderate calls, heavy I/O), redis-like
    (hash-table heavy, fast request loop), memcached-like (slab reads),
    postgres-like (call-heavy query execution, buffered I/O). *)

val find : string -> Profile.t
(** Raises [Not_found]. *)

val names : string list
