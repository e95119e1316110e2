/**
 * @file
 * The sweep service's result store: a RunStore (sim/journal.hh) at
 * `rvpsweepd --store`, mapping each run's key (configKey of the
 * config its spec describes, service/protocol.hh) to the exact record
 * line the run produced. runStored puts only a first attempt's
 * success, stamped with this build's model; a restart on a rebuilt
 * model finds the old puts stale and runs their keys again. The
 * daemon answers a repeated request with the stored bytes verbatim,
 * so responses are byte-identical across daemon restarts — including
 * a SIGKILL mid-grid, because every put is fsync'd and the replay
 * skips a torn trailing line. It compacts on graceful shutdown.
 */

#ifndef RVP_SERVICE_STORE_HH
#define RVP_SERVICE_STORE_HH

#include "sim/journal.hh"

namespace rvp
{

using ResultStore = RunStore;

} // namespace rvp

#endif // RVP_SERVICE_STORE_HH
