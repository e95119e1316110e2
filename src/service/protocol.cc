#include "service/protocol.hh"

#include <iterator>
#include <sstream>

#include "common/jsonlite.hh"
#include "common/parse.hh"
#include "sim/journal.hh"
#include "sim/sweep.hh"
#include "vp/registry.hh"
#include "workloads/workloads.hh"

namespace rvp
{

namespace
{

// Indexed by ServiceError::Code: the stable wire names.
constexpr const char *codeNames[] = {"protocol",     "oversized",
                                     "validation",   "backpressure",
                                     "deadline",     "draining"};
static_assert(std::size(codeNames) ==
              static_cast<std::size_t>(ServiceError::Code::Draining) + 1);

/** Scheme in canonical registry spelling; the raw text when it does
 *  not resolve (validation reports that separately). */
std::string
canonicalScheme(const std::string &scheme)
{
    if (std::optional<VpScheme> s = schemeForName(scheme))
        return registryNameOf(*s);
    return scheme;
}

// --- spec <-> JSON ---------------------------------------------------

std::string
specToJson(const RunSpec &s)
{
    std::ostringstream os;
    os << "{\"workload\": \"" << jsonEscape(s.workload)
       << "\", \"scheme\": \"" << jsonEscape(s.scheme)
       << "\", \"assist\": \"" << jsonEscape(s.assist)
       << "\", \"recovery\": \"" << jsonEscape(s.recovery)
       << "\", \"loads_only\": " << (s.loadsOnly ? "true" : "false")
       << ", \"insts\": " << s.insts
       << ", \"profile_insts\": " << s.profileInsts
       << ", \"profile_threshold\": " << jsonNum(s.profileThreshold)
       << ", \"table_entries\": " << s.tableEntries
       << ", \"counter_threshold\": " << s.counterThreshold
       << ", \"vp_params\": \"" << jsonEscape(s.vpParams) << "\"}";
    return os.str();
}

/** Overwrite `out` with the field when the message carries it. */
template <typename T>
void
readOptional(const JsonObject &obj, const char *name, T &out)
{
    auto it = obj.find(name);
    if (it != obj.end())
        out = it->second.get<T>(name);
}

/** Throws ConfigError on a field of the wrong JSON kind or a number
 *  that does not fit its field. */
RunSpec
specFromJson(const JsonObject &obj)
{
    RunSpec s;
    s.workload = jsonGet<std::string>(obj, "workload");
    s.scheme = jsonGet<std::string>(obj, "scheme");
    readOptional(obj, "assist", s.assist);
    readOptional(obj, "recovery", s.recovery);
    readOptional(obj, "loads_only", s.loadsOnly);
    readOptional(obj, "insts", s.insts);
    readOptional(obj, "profile_insts", s.profileInsts);
    readOptional(obj, "profile_threshold", s.profileThreshold);
    readOptional(obj, "table_entries", s.tableEntries);
    readOptional(obj, "counter_threshold", s.counterThreshold);
    readOptional(obj, "vp_params", s.vpParams);
    return s;
}

} // namespace

const char *
serviceCodeName(ServiceError::Code code)
{
    return codeNames[static_cast<std::size_t>(code)];
}

ServiceError::Code
serviceCodeFromName(const std::string &name)
{
    for (std::size_t i = 0; i < std::size(codeNames); ++i)
        if (name == codeNames[i])
            return static_cast<ServiceError::Code>(i);
    throw ServiceError(ServiceError::Code::Protocol,
                       "unknown error code '" + name + "'");
}

std::string
canonicalSpecText(const RunSpec &spec)
{
    // Frozen v1 grammar: bump the tag if a field is ever added, so old
    // store entries can never alias new specs.
    std::ostringstream os;
    os << "rvp-spec-v1|" << spec.workload << '|'
       << canonicalScheme(spec.scheme) << '|' << spec.assist << '|'
       << spec.recovery << '|' << (spec.loadsOnly ? "loads" : "all")
       << '|' << spec.insts << '|' << spec.profileInsts << '|'
       << jsonNum(spec.profileThreshold) << '|' << spec.tableEntries
       << '|' << spec.counterThreshold << '|' << spec.vpParams;
    return os.str();
}

std::string
runSpecKey(const RunSpec &spec)
{
    return hashHex(fnv1a(canonicalSpecText(spec)));
}

ExperimentConfig
configForSpec(const RunSpec &spec)
{
    if (!findWorkload(spec.workload))
        throwConfigError("unknown workload '%s'", spec.workload.c_str());
    std::optional<VpScheme> scheme = schemeForName(spec.scheme);
    if (!scheme)
        throwConfigError("unknown scheme '%s' (see --list-vp)",
                         spec.scheme.c_str());
    ExperimentConfig config;
    config.workload = spec.workload;
    config.scheme = *scheme;
    config.assist = assistForName(spec.assist);
    config.core.recovery = recoveryForName(spec.recovery);
    config.core.maxInsts = spec.insts;
    config.loadsOnly = spec.loadsOnly;
    config.profileInsts = spec.profileInsts;
    config.profileThreshold = spec.profileThreshold;
    config.tableEntries = spec.tableEntries;
    config.counterThreshold = spec.counterThreshold;
    config.vpParams = spec.vpParams;
    return config;
}

// --- encoders --------------------------------------------------------

std::string
encodeHelloRequest()
{
    return "{\"type\": \"hello\", \"version\": " +
           std::to_string(serviceProtocolVersion) + "}";
}

std::string
encodeSubmitRequest(const std::string &id,
                    const std::vector<RunSpec> &runs)
{
    std::ostringstream os;
    os << "{\"type\": \"submit\", \"id\": \"" << jsonEscape(id)
       << "\", \"runs\": [";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (i)
            os << ", ";
        os << specToJson(runs[i]);
    }
    os << "]}";
    return os.str();
}

std::string
encodeStatusRequest()
{
    return "{\"type\": \"status\"}";
}

std::string
encodeShutdownRequest()
{
    return "{\"type\": \"shutdown\"}";
}

std::string
encodeHelloReply(std::uint64_t storeEntries)
{
    return "{\"type\": \"hello\", \"version\": " +
           std::to_string(serviceProtocolVersion) +
           ", \"store_entries\": " + std::to_string(storeEntries) + "}";
}

std::string
encodeResultReply(const std::string &id, std::uint64_t index,
                  const std::string &key, bool cached,
                  const std::string &record)
{
    std::ostringstream os;
    os << "{\"type\": \"result\", \"id\": \"" << jsonEscape(id)
       << "\", \"index\": " << index << ", \"key\": \""
       << jsonEscape(key) << "\", \"cached\": "
       << (cached ? "true" : "false")
       // The record travels as an escaped STRING of the exact stored
       // journal line (jsonlite unescapes only what jsonEscape adds),
       // so the client recovers the store's bytes verbatim — the
       // byte-identity-across-restart guarantee needs no
       // re-serialization anywhere.
       << ", \"record\": \"" << jsonEscape(record) << "\"}";
    return os.str();
}

std::string
encodeErrorReply(ServiceError::Code code, const std::string &message,
                 const std::string &id)
{
    std::ostringstream os;
    os << "{\"type\": \"error\", \"code\": \"" << serviceCodeName(code)
       << "\", \"message\": \"" << jsonEscape(message) << "\"";
    if (!id.empty())
        os << ", \"id\": \"" << jsonEscape(id) << "\"";
    os << "}";
    return os.str();
}

std::string
encodeStatusReply(const ServiceStatus &s)
{
    std::ostringstream os;
    os << "{\"type\": \"status\", \"store_entries\": " << s.storeEntries
       << ", \"queued\": " << s.queued
       << ", \"inflight\": " << s.inflight
       << ", \"clients\": " << s.clients
       << ", \"executed\": " << s.executed
       << ", \"served_cached\": " << s.servedCached
       << ", \"dedup_subscribed\": " << s.dedupSubscribed
       << ", \"draining\": " << (s.draining ? "true" : "false") << "}";
    return os.str();
}

std::string
encodeByeReply()
{
    return "{\"type\": \"bye\"}";
}

// --- decoders --------------------------------------------------------

ClientRequest
decodeClientRequest(const std::string &payload)
{
    try {
        JsonObject obj = parseJsonLine(payload);
        std::string type = jsonGet<std::string>(obj, "type");
        ClientRequest req;
        if (type == "hello") {
            req.kind = ClientRequest::Kind::Hello;
            req.version = jsonGet<int>(obj, "version");
        } else if (type == "submit") {
            req.kind = ClientRequest::Kind::Submit;
            req.id = jsonGet<std::string>(obj, "id");
            const JsonValue &runs = jsonField(obj, "runs");
            if (runs.kind != JsonValue::Kind::Arr)
                throw std::runtime_error("runs is not an array");
            for (const JsonValue &r : runs.arr) {
                if (r.kind != JsonValue::Kind::Obj)
                    throw std::runtime_error("run spec is not an object");
                try {
                    req.runs.push_back(specFromJson(r.obj));
                } catch (const ConfigError &e) {
                    // Well-formed JSON, but a spec field no config can
                    // hold: the spec is invalid, the stream is fine.
                    throw ServiceError(ServiceError::Code::Validation,
                                       "run " +
                                           std::to_string(req.runs.size()) +
                                           ": " + e.what());
                }
            }
        } else if (type == "status") {
            req.kind = ClientRequest::Kind::Status;
        } else if (type == "shutdown") {
            req.kind = ClientRequest::Kind::Shutdown;
        } else {
            throw std::runtime_error("unknown request type '" + type +
                                     "'");
        }
        return req;
    } catch (const ServiceError &) {
        throw;
    } catch (const std::exception &e) {
        throw ServiceError(ServiceError::Code::Protocol,
                           std::string("bad request: ") + e.what());
    }
}

ServerMsg
decodeServerMsg(const std::string &payload)
{
    try {
        JsonObject obj = parseJsonLine(payload);
        std::string type = jsonGet<std::string>(obj, "type");
        ServerMsg msg;
        if (type == "hello") {
            msg.kind = ServerMsg::Kind::Hello;
            msg.version = jsonGet<int>(obj, "version");
            msg.storeEntries = jsonGet<std::uint64_t>(obj, "store_entries");
        } else if (type == "result") {
            msg.kind = ServerMsg::Kind::Result;
            msg.id = jsonGet<std::string>(obj, "id");
            msg.index = jsonGet<std::uint64_t>(obj, "index");
            msg.key = jsonGet<std::string>(obj, "key");
            msg.cached = jsonGet<bool>(obj, "cached");
            msg.record = jsonGet<std::string>(obj, "record");
        } else if (type == "error") {
            msg.kind = ServerMsg::Kind::Error;
            msg.code =
                serviceCodeFromName(jsonGet<std::string>(obj, "code"));
            msg.message = jsonGet<std::string>(obj, "message");
            readOptional(obj, "id", msg.id);
        } else if (type == "status") {
            msg.kind = ServerMsg::Kind::Status;
            ServiceStatus &st = msg.status;
            st.storeEntries = jsonGet<std::uint64_t>(obj, "store_entries");
            st.queued = jsonGet<std::uint64_t>(obj, "queued");
            st.inflight = jsonGet<std::uint64_t>(obj, "inflight");
            st.clients = jsonGet<std::uint64_t>(obj, "clients");
            st.executed = jsonGet<std::uint64_t>(obj, "executed");
            st.servedCached = jsonGet<std::uint64_t>(obj, "served_cached");
            st.dedupSubscribed =
                jsonGet<std::uint64_t>(obj, "dedup_subscribed");
            st.draining = jsonGet<bool>(obj, "draining");
        } else if (type == "bye") {
            msg.kind = ServerMsg::Kind::Bye;
        } else {
            throw std::runtime_error("unknown reply type '" + type +
                                     "'");
        }
        return msg;
    } catch (const ServiceError &) {
        throw;
    } catch (const std::exception &e) {
        throw ServiceError(ServiceError::Code::Protocol,
                           std::string("bad reply: ") + e.what());
    }
}

} // namespace rvp
