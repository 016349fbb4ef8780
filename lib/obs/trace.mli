(** Structured, zero-cost-when-off tracing for the timing stack.

    Components capture a [sink option] at construction; emission sites
    test that option and then {!wants} before they build a payload, so
    a disabled trace costs one always-not-taken branch per site, and an
    attached sink that records none of a site's categories costs no
    allocation either. Events carry (tick, component,
    category, detail, payload) and can be rendered three ways: a
    canonical deterministic text format (one line per event, stable
    ordering at equal ticks — the golden-test format), Chrome
    trace-event JSON (opens in Perfetto, one row per component), and a
    gem5-style stats.txt dump built from a folded statistics tree. *)

type category =
  | Engine_issue
  | Engine_execute
  | Engine_writeback
  | Engine_stall
  | Fu_occupancy
  | Cache_hit
  | Cache_miss
  | Cache_fill
  | Cache_evict
  | Dma_burst_start
  | Dma_burst_end
  | Spm_access
  | Spm_conflict
  | Xbar_route
  | Xbar_contention
  | Stream_push
  | Stream_pop
  | Stream_stall
  | Mmr_write
  | Interrupt
  | Dram_access

val all_categories : category list
(** Every category — the set {!create} records when [categories] is
    omitted. *)

val category_to_string : category -> string
(** Stable dotted name, e.g. ["cache.miss"] — used in the text format
    and accepted back by {!category_of_string}. *)

val category_of_string : string -> category option

type value = I of int64 | F of float | S of string

type event = {
  tick : int64;
  seq : int;  (** emission order; tie-break for events at equal ticks *)
  comp : string;
  cat : category;
  detail : string;
  args : (string * value) list;
}

type sink

val create : ?ring:int -> ?categories:category list -> unit -> sink
(** [ring] bounds the buffer to the last N events (older ones are
    dropped and counted); default unbounded. [categories] restricts
    which categories are recorded at all (default: every one,
    {!all_categories}). *)

val wants : sink -> category -> bool
(** Whether the sink records this category — lets emission sites skip
    building an expensive payload. *)

val emit :
  sink -> tick:int64 -> comp:string -> cat:category -> ?detail:string ->
  (string * value) list -> unit
(** [detail] must be a single token (no spaces); it defaults to ["-"]. *)

val count : sink -> int

val dropped : sink -> int
(** Events evicted from a ring-bounded sink so far. *)

val events : sink -> event list
(** Canonical order: by tick, emission order at equal ticks. *)

type filter = {
  f_comp : string option;  (** substring match on the component name *)
  f_from : int64 option;
  f_to : int64 option;
}

val no_filter : filter

val filtered : ?filter:filter -> sink -> event list

val to_lines : ?filter:filter -> sink -> string list
(** One canonical text line per event: [tick comp category detail k=v ...]. *)

val to_text : ?filter:filter -> sink -> string

val write_text : out_channel -> ?filter:filter -> sink -> unit

val write_chrome_json : out_channel -> event list -> unit
(** Chrome trace-event JSON: one thread per component, DMA bursts as
    B/E spans, FU occupancy as counter tracks, the rest as instants. *)

val write_stats_txt : out_channel -> (string * float) list -> unit
(** gem5-style stats dump from folded [(path, value)] pairs. Paths are
    padded to 50 columns, or to the longest path in the dump, so the
    values line up in one right-aligned column. *)

type divergence = { at_line : int; left : string option; right : string option }

val first_divergence : string list -> string list -> divergence option
(** First differing line of two canonical text traces (1-based). *)

val divergence_to_string : divergence -> string
