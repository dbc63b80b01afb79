// The benchmark's workloads.  Each runs in this process with at most
// kPoolWorkers + 1 threads and fills `result` with its metrics, ops
// and correctness checks.  A traced run records its spans into `tracer`
// (written out by the caller) and derives its per-layer metrics from
// them; an untraced run leaves `tracer` empty.
#pragma once

#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

/// Fig. 3 spray -> hammer -> scan exploit, single-threaded.
void RunFig3Exploit(const Options& opts, Result& result, Tracer& tracer);

/// Closed-loop N-tenant cloud host on the NVMe event loop.
void RunCloud8Mixed(const Options& opts, Result& result, Tracer& tracer);
void RunCloud1024Reads(const Options& opts, Result& result, Tracer& tracer);

}  // namespace perfbench
