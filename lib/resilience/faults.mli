(** Deterministic fault injection for the engine stack.

    The degradation paths this repo promises — solver timeout →
    alternate-solver retry, certificate failure → fallback, killed
    pool task → typed error, truncated parser input → located
    diagnostic — are only trustworthy if they can be exercised on
    demand. This module turns them on from one switch:

    {v RAR_FAULTS=<seed>:<profile>[,<profile>...] v}

    Profiles: [timeout] (every primary {!Rar_flow.Difflp} flow solve
    reports an injected timeout), [badcert] (the primary solve's
    certificate verdict is flipped: a flow engine's duality check, or
    an accepted closure min-cut check), [poolkill] (every
    [Rar_util.Pool.map] element raises {!Injected}), [truncate]
    (parser input is cut at a seed-determined offset), [chaos]
    (timeout and badcert each fire on ~1/4 of the solve keys, chosen
    by the seed), and [deadline=<ms>] (engine runs that were given no
    explicit deadline get one with this budget).

    All firing decisions hash [(seed, site, key)] where [key] is a
    stable property of the work item (e.g. the LP shape) — never a
    call counter — so a faulted run is reproducible under any domain
    scheduling or job count. Injection only ever perturbs the {e
    primary} attempt of a fallback chain; retries run clean, so a
    faulted run still converges.

    A malformed [RAR_FAULTS] value is reported once on [stderr] and
    ignored (the production stance: a broken knob must not take the
    service down). Programmatic {!set}/{!configure}/{!disable}
    override the environment; {!use_env} restores it (tests use these
    to pin their own profiles regardless of CI's fault matrix). *)

type profile =
  | Timeout  (** force primary flow solves to report a timeout *)
  | Badcert  (** flip the primary solve's certificate verdict *)
  | Poolkill  (** raise {!Injected} from every pool task element *)
  | Truncate  (** cut parser input at a seed-determined offset *)
  | Chaos  (** timeout + badcert, each on ~1/4 of keys *)

type config = {
  seed : int;
  profiles : profile list;
  deadline_s : float option;  (** from [deadline=<ms>] *)
}

exception Injected of string
(** Raised by injected pool-task kills; the engine layer converts it
    into [Error.Worker_crashed]. *)

val profile_name : profile -> string
val of_string : string -> (config, string) result
(** Parse the [RAR_FAULTS] grammar above. *)

val to_string : config -> string

(** {1 Activation} *)

val active : unit -> config option
val enabled : unit -> bool
val set : config -> unit
val configure : ?seed:int -> ?deadline_s:float -> profile list -> unit
val disable : unit -> unit
(** Force fault injection off, ignoring [RAR_FAULTS]. *)

val use_env : unit -> unit
(** Restore the environment-driven configuration (the default). *)

(** {1 Injection sites} *)

val solver_timeout : key:int -> bool
(** Should the primary flow solve with this key pretend to time out? *)

val flip_certificate : key:int -> bool
(** Should the primary solve's certificate verdict be inverted? *)

val deadline_s : unit -> float option
(** Budget from a [deadline=<ms>] profile, for engine runs that were
    not given an explicit deadline. *)

val truncate : string -> string
(** Cut the text at a seed-determined offset when the [Truncate]
    profile is active; identity otherwise. *)

val install_pool_hook : unit -> unit
(** (Re-)install the {!Rar_util.Pool.set_task_hook} that implements
    [Poolkill]. Installed automatically at load time; only needed
    after a test has replaced the hook. *)
