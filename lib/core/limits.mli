(** Run limits shared by the [dpma] front end and the benchmark harness:
    the [--max-seconds], [--max-mb], [--spill-dir] and [--spill-mb]
    flags. *)

val install :
  max_seconds:float option ->
  max_mb:int option ->
  spill_dir:string option ->
  spill_mb:int option ->
  (unit, string) result
(** Validates the four flag values and makes them ambient for the rest
    of the run. A wall-clock or memory budget installs a
    {!Dpma_util.Guard} (a trip degrades the run, exit 3); a spill
    directory sets the {!Dpma_lts.Segstore} defaults, with a resident
    budget of [spill_mb] MiB, else half of [max_mb] (at least 1), else
    64 MiB. [Error msg] names the offending flag — a negative or
    non-finite [max_seconds], or a [max_mb]/[spill_mb] below 1 — and
    installs nothing. *)
