/**
 * @file
 * Wire protocol of the sweep service (rvpsweepd <-> sweepctl): typed
 * request/response messages carried as length-prefixed JSONL frames
 * (common/framing.hh) over a Unix-domain socket, parsed with the
 * shared single-line JSON grammar (common/jsonlite.hh).
 *
 * A client opens a connection and immediately receives a server hello
 * frame; it then sends any number of submit / status / shutdown
 * requests. Every submitted run is identified by a content-addressed
 * key — configKey (sim/journal.hh) of the config its spec describes —
 * which is also the key of the daemon's persistent result store, so
 * identical requests from any client, at any time, before or after a
 * daemon crash, resolve to the same record bytes.
 *
 * Every failure the daemon can hand back is a typed `error` frame with
 * a stable machine-readable code (ServiceError::Code); see
 * docs/INTERNALS.md for the full failure taxonomy.
 */

#ifndef RVP_SERVICE_PROTOCOL_HH
#define RVP_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parse.hh"
#include "sim/runner.hh"

namespace rvp
{

/** Protocol revision spoken by this build; the server advertises its
 *  version in the hello frame and clients refuse a mismatch. */
constexpr int serviceProtocolVersion = 1;

/**
 * A typed service failure. The code is what travels in error frames
 * (stable strings, see codeName()); the message is human-readable
 * detail. Thrown by the decoders, answered as frames by the daemon.
 */
class ServiceError : public std::runtime_error
{
  public:
    enum class Code
    {
        Protocol,      ///< malformed frame / JSON / unknown message type
        Oversized,     ///< frame exceeded the connection's byte bound
        Validation,    ///< RunSpec rejected before any work was queued
        Backpressure,  ///< request queue full; resubmit later
        Deadline,      ///< idle or per-request deadline expired
        Draining,      ///< daemon is shutting down; refuses new work
    };

    ServiceError(Code code, const std::string &what)
        : std::runtime_error(what), code_(code)
    {
    }

    Code code() const { return code_; }

  private:
    Code code_;
};

/** Stable wire string of a code ("protocol", "backpressure", ...). */
const char *serviceCodeName(ServiceError::Code code);

/** Parse a wire string back to a code; throws ServiceError(Protocol)
 *  on an unknown string. */
ServiceError::Code serviceCodeFromName(const std::string &name);

/**
 * One requested experiment, in wire form: every enum travels as its
 * stable lowercase name (schemeName/assistName grammar), so specs are
 * readable, diffable, and independent of enum numbering. Fields not
 * listed here (tracing, realisticRealloc, taggedRvp) are not part of
 * the v1 service surface.
 */
struct RunSpec
{
    std::string workload;
    std::string scheme;              ///< registry name or alias
    std::string assist = "same";
    std::string recovery = "selective";
    bool loadsOnly = true;
    std::uint64_t insts = 400'000;   ///< timed-run commit budget
    std::uint64_t profileInsts = 300'000;
    double profileThreshold = 0.8;
    unsigned tableEntries = 1024;
    unsigned counterThreshold = 7;
    std::string vpParams;            ///< "k=v,k=v" registry param bag

    bool operator==(const RunSpec &) const = default;
};

/**
 * canonicalConfigText(configForSpec(spec)): a spec's config differs
 * from ExperimentConfig{} only in spec fields, so this is the frozen
 * `rvp-spec-v1` text (part of the store format). The scheme is written
 * by its registry name, so "drvp" and "rvp-dynamic" share a key.
 * Throws ConfigError where configForSpec does.
 */
std::string canonicalSpecText(const RunSpec &spec);

/** The spec's run key: configKey(configForSpec(spec)). */
std::string runSpecKey(const RunSpec &spec);

/**
 * The ExperimentConfig a spec describes; throws ConfigError on an
 * unknown workload, scheme, assist or recovery name. The daemon checks
 * every spec of a submit by building its config here and passing it to
 * validateExperimentConfig (sweepctl does the same before connecting),
 * and answers a ConfigError with a `validation` error frame.
 */
ExperimentConfig configForSpec(const RunSpec &spec);

/** A client request, decoded. */
struct ClientRequest
{
    enum class Kind
    {
        Hello,     ///< {type, version}
        Submit,    ///< {type, id, runs: [spec, ...]}
        Status,    ///< {type}
        Shutdown,  ///< {type} — drain and exit
    };

    Kind kind = Kind::Hello;
    int version = 0;          ///< Hello
    std::string id;           ///< Submit: client-chosen request id
    std::vector<RunSpec> runs;///< Submit
};

/** Daemon-side counters reported by status frames. */
struct ServiceStatus
{
    std::uint64_t storeEntries = 0;  ///< this model's entries
    std::uint64_t staleEntries = 0;  ///< another model's puts, not loaded
    std::uint64_t queued = 0;
    std::uint64_t inflight = 0;
    std::uint64_t clients = 0;
    std::uint64_t executed = 0;      ///< runs actually simulated
    std::uint64_t servedCached = 0;  ///< results answered from the store
    std::uint64_t dedupSubscribed = 0; ///< submits folded onto in-flight runs
    bool draining = false;
};

/** A server message, decoded (client side). */
struct ServerMsg
{
    enum class Kind
    {
        Hello,   ///< {type, version, store_entries}
        Result,  ///< {type, id, index, key, cached, record}
        Error,   ///< {type, code, message, id?}
        Status,  ///< {type, ...ServiceStatus fields}
        Bye,     ///< {type} — ack of shutdown
    };

    Kind kind = Kind::Hello;
    int version = 0;                   ///< Hello
    std::uint64_t storeEntries = 0;    ///< Hello
    std::string id;                    ///< Result / Error
    std::uint64_t index = 0;           ///< Result: position in the submit
    std::string key;                   ///< Result
    bool cached = false;               ///< Result: served from the store
    std::string record;                ///< Result: journal record line
    ServiceError::Code code = ServiceError::Code::Protocol; ///< Error
    std::string message;               ///< Error
    ServiceStatus status;              ///< Status
};

// --- encoders (each returns one frame payload, no trailing newline) --

std::string encodeHelloRequest();
std::string encodeSubmitRequest(const std::string &id,
                                const std::vector<RunSpec> &runs);
std::string encodeStatusRequest();
std::string encodeShutdownRequest();

std::string encodeHelloReply(std::uint64_t storeEntries);
std::string encodeResultReply(const std::string &id, std::uint64_t index,
                              const std::string &key, bool cached,
                              const std::string &record);
std::string encodeErrorReply(ServiceError::Code code,
                             const std::string &message,
                             const std::string &id = "");
std::string encodeStatusReply(const ServiceStatus &status);
std::string encodeByeReply();

// --- decoders (throw ServiceError(Protocol) on anything malformed, or
// Validation on a spec field of the wrong kind or out of range) ------

ClientRequest decodeClientRequest(const std::string &payload);
ServerMsg decodeServerMsg(const std::string &payload);

} // namespace rvp

#endif // RVP_SERVICE_PROTOCOL_HH
