/**
 * @file
 * The benchmark's three workloads (see README.md for their inputs and
 * why each was chosen). Each factory does the whole set-up — the part
 * timed as setup_s — and returns a workload ready for its first period.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <memory>

#include "harness.hh"

namespace perfbench {

/** Table-4 center in ClosedLoopSim over a lossless message plane. */
std::unique_ptr<Workload> makeTable4Loop(const Options &opt);

/** One WorkerHost running a depth-4 tree over loopback UDP. */
std::unique_ptr<Workload> makeDeepUdp(const Options &opt);

/** Three-phase Table-4 message plane over a lossy SimTransport. */
std::unique_ptr<Workload> makePlaneLossy(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
