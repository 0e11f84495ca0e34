// Package sim is a deterministic, multi-clock-domain, cycle-accurate
// simulation engine for on-chip networks.
//
// The engine advances absolute time (integer picoseconds, see package
// clock) from rising edge to rising edge. All components whose clocks have
// an edge at the current instant execute in two phases:
//
//  1. Update: every due component reads its input wires, computes its next
//     state and drives its output wires. Drives are buffered, so every
//     wire still holds the value committed before this instant: a reader
//     clocked at the same instant as a writer observes the writer's
//     *previous* output, whichever of the two updates first — exactly the
//     register-transfer semantics of synchronous hardware.
//  2. Commit: all buffered drives become visible.
//
// The invariant that makes one read-and-update phase sufficient: a
// component reads another component's output of the current instant only
// through a sim.Wire, whose committed value is fixed until the commit
// phase. The channels that change at Push time (Bisync, TokenChannel)
// order reads by their explicit forwarding delays, not by update order.
//
// Components in different clock domains simply fire at different instants;
// cross-domain channels (bi-synchronous FIFOs, token channels) are modelled
// in package sim as well, with explicit forwarding delays, because they are
// the only legal clock-domain crossings in aelite.
//
// The engine is strictly single-threaded (design-space parallelism lives
// in internal/parallel, one private engine per point) and deterministic
// to the picosecond, which is what makes trace comparison, composability
// checks and the replay fast path (internal/replay, via the FastPath
// hook) sound.
package sim
