(** Monomorphic flat-array min-heap keyed by [(time, seq)].

    The discrete-event engine's queue in one structure-of-arrays: an
    unboxed [float array] lane for times, an [int array] lane for the
    FIFO tie-breaking sequence numbers, and a payload lane for whatever
    the caller attaches to each entry. Orders ascending by time, then by
    sequence number — exactly the comparator the engine used on its
    boxed event records, but with no closure call, no polymorphic
    compare and no pointer chase per comparison: a sift step reads two
    flats and branches.

    Compared to a generic comparator heap holding a record per event,
    this removes the per-event record (and the boxed float inside it,
    since a mixed record boxes its float fields) and the [Some]
    allocation per peek/pop.

    Keys must not be NaN — NaN breaks the strict-weak-ordering the sift
    relies on. Callers validate (the engine rejects NaN schedule
    times). When [(time, seq)] pairs are unique, pop order is a total
    order and therefore independent of internal layout: replacing a
    comparator heap with this structure cannot reorder events. *)

type 'a t

(** [create ~dummy ()] is an empty heap. [dummy] is a throwaway payload
    value used to blank vacated slots so popped payloads are not
    retained by the backing array. *)
val create : dummy:'a -> unit -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

(** [add t ~time ~seq payload] inserts an entry. Amortised O(log n),
    allocation-free except when the backing arrays grow. *)
val add : 'a t -> time:float -> seq:int -> 'a -> unit

(** [min_time t] is the smallest [(time, seq)] entry's time. Undefined
    (reads a stale slot or raises [Invalid_argument]) when empty — check
    {!is_empty} first. *)
val min_time : 'a t -> float

(** [min_seq t] is the minimum entry's sequence number. Same caveat as
    {!min_time}. *)
val min_seq : 'a t -> int

(** [min_payload t] is the minimum entry's payload. Same caveat as
    {!min_time}. *)
val min_payload : 'a t -> 'a

(** [drop_min t] removes the minimum entry. Raises [Invalid_argument]
    when empty. O(log n), allocation-free. *)
val drop_min : 'a t -> unit

(** [pop t] is the minimum payload after removing its entry, or [None]
    when empty. Convenience for tests; the engine's hot path uses
    {!min_payload} + {!drop_min} to avoid the option. *)
val pop : 'a t -> 'a option

(** [clear t] empties the heap and releases the backing arrays. *)
val clear : 'a t -> unit
