#ifndef EMSIM_PERFBENCH_HOST_SPEED_H_
#define EMSIM_PERFBENCH_HOST_SPEED_H_

// A fixed host-speed probe owned by the harness: a small event-calendar
// loop (binary heap of timestamps, xorshift increments, a branchy counter
// table) whose code no emsim change can move. Timing it next to each timed
// phase tells how fast the host was running at that moment.

namespace perfbench {

/// Host ns per probe op, the probe running alone on this thread.
double SerialProbeNsPerOp();

/// Wall ns per probe op while `threads` threads each run the probe at once:
/// how much parallel capacity the host gives right now.
double ParallelProbeNsPerOp(int threads);

}  // namespace perfbench

#endif  // EMSIM_PERFBENCH_HOST_SPEED_H_
