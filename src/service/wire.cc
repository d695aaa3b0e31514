#include "wire.hh"

#include <cstring>

namespace rime::service::wire
{

const char *
messageKindName(MessageKind kind)
{
    switch (kind) {
      case MessageKind::Hello:         return "Hello";
      case MessageKind::Welcome:       return "Welcome";
      case MessageKind::OpenSession:   return "OpenSession";
      case MessageKind::SessionOpened: return "SessionOpened";
      case MessageKind::CloseSession:  return "CloseSession";
      case MessageKind::Request:       return "Request";
      case MessageKind::Response:      return "Response";
      case MessageKind::Start:         return "Start";
      case MessageKind::StatDump:      return "StatDump";
      case MessageKind::StatDumpReply: return "StatDumpReply";
      case MessageKind::Error:         return "Error";
      case MessageKind::DrainSession:  return "DrainSession";
      case MessageKind::InstallSession:return "InstallSession";
      case MessageKind::ResumeSession: return "ResumeSession";
    }
    return "unknown";
}

std::uint64_t
resumeToken(std::uint64_t session_id, const std::string &tenant)
{
    // FNV-1a over a fixed tag, the id bytes, and the tenant: stable
    // across processes and restarts (see the header comment).
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint8_t byte) {
        h ^= byte;
        h *= 0x100000001b3ull;
    };
    for (const char c : std::string("rime.resume.v1"))
        mix(static_cast<std::uint8_t>(c));
    for (unsigned i = 0; i < 8; ++i)
        mix(static_cast<std::uint8_t>(session_id >> (8 * i)));
    for (const char c : tenant)
        mix(static_cast<std::uint8_t>(c));
    // 0 means "unset" in the protocol; never issue it.
    return h == 0 ? 1 : h;
}

const char *
wireErrorName(WireError error)
{
    switch (error) {
      case WireError::None:           return "none";
      case WireError::BadMagic:       return "bad-magic";
      case WireError::BadVersion:     return "bad-version";
      case WireError::BadFrame:       return "bad-frame";
      case WireError::BadMessage:     return "bad-message";
      case WireError::UnknownSession: return "unknown-session";
      case WireError::Shutdown:       return "shutdown";
    }
    return "unknown";
}

// ----------------------------------------------------------------------
// Request / Response body codecs (shared with the journal Op records)
// ----------------------------------------------------------------------

void
encodeRequest(BitWriter &w, const service::Request &req)
{
    w.putU8(static_cast<std::uint8_t>(req.kind));
    w.putVarint(req.start);
    w.putVarint(req.end);
    w.putVarint(req.bytes);
    w.putVarint(req.count);
    w.putBool(req.largest);
    w.putU8(static_cast<std::uint8_t>(req.mode));
    w.putVarint(req.wordBits);
    w.putVarint(req.deadline);
    w.putVarint(req.values.size());
    // `largest` leaves the values at bit phase 1: one shifted run.
    w.putU64s(req.values.data(), req.values.size());
}

bool
decodeRequest(BitReader &r, service::Request &req)
{
    req.kind = static_cast<RequestKind>(r.getU8());
    req.start = r.getVarint();
    req.end = r.getVarint();
    req.bytes = r.getVarint();
    req.count = r.getVarint();
    req.largest = r.getBool();
    req.mode = static_cast<KeyMode>(r.getU8());
    req.wordBits = static_cast<unsigned>(r.getVarint());
    req.deadline = r.getVarint();
    const std::uint64_t n = r.getVarint();
    if (!r.ok() || n > r.bitsLeft() / 64)
        return false;
    req.values.resize(n);
    return r.getU64s(req.values.data(), n);
}

void
encodeResponse(BitWriter &w, const service::Response &resp)
{
    w.putU8(static_cast<std::uint8_t>(resp.status));
    w.putU8(static_cast<std::uint8_t>(resp.reject));
    w.putVarint(resp.addr);
    w.putVarint(resp.shardTick);
    w.putVarint(resp.allocatedBytes);
    // queueWallNs is host wall-clock timing; bit-cast so the client
    // sees exactly what an in-process future would carry.
    std::uint64_t wall = 0;
    static_assert(sizeof(wall) == sizeof(resp.queueWallNs));
    std::memcpy(&wall, &resp.queueWallNs, sizeof(wall));
    w.putU64(wall);
    w.putVarint(resp.health.counts.healthyUnits);
    w.putVarint(resp.health.counts.degradedUnits);
    w.putVarint(resp.health.counts.retiredUnits);
    w.putVarint(resp.health.counts.deadUnits);
    w.putVarint(resp.health.counts.remappedRows);
    w.putVarint(resp.health.counts.lostValues);
    w.putVarint(resp.health.retiredBytes);
    w.putVarint(resp.items.size());
    for (const auto &item : resp.items) {
        w.putU64(item.raw);
        w.putVarint(item.index);
    }
    w.putBytes(resp.image.data(), resp.image.size());
}

bool
decodeResponse(BitReader &r, service::Response &resp)
{
    resp.status = static_cast<ServiceStatus>(r.getU8());
    resp.reject = static_cast<RejectReason>(r.getU8());
    resp.addr = r.getVarint();
    resp.shardTick = r.getVarint();
    resp.allocatedBytes = r.getVarint();
    const std::uint64_t wall = r.getU64();
    std::memcpy(&resp.queueWallNs, &wall, sizeof(wall));
    resp.health.counts.healthyUnits = r.getVarint();
    resp.health.counts.degradedUnits = r.getVarint();
    resp.health.counts.retiredUnits = r.getVarint();
    resp.health.counts.deadUnits = r.getVarint();
    resp.health.counts.remappedRows = r.getVarint();
    resp.health.counts.lostValues = r.getVarint();
    resp.health.retiredBytes = r.getVarint();
    const std::uint64_t n = r.getVarint();
    // Each item needs >= 65 bits; cap against the remaining input so
    // a corrupt count cannot drive a giant allocation.
    if (!r.ok() || n > r.bitsLeft() / 65)
        return false;
    resp.items.resize(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        resp.items[i].raw = r.getU64();
        resp.items[i].index = r.getVarint();
    }
    resp.image = r.getBytes();
    return r.ok();
}

// ----------------------------------------------------------------------
// Message envelope
// ----------------------------------------------------------------------

void
encodeMessage(std::vector<std::uint8_t> &out, const Message &msg)
{
    BitWriter w;
    // Responses dominate the serve path; pre-sizing for the item list
    // keeps the encode to one allocation instead of a growth ladder.
    w.reserve(msg.kind == MessageKind::Response
                  ? 64 + msg.resp.items.size() * 10
                  : 64);
    w.putU8(static_cast<std::uint8_t>(msg.kind));
    w.putVarint(msg.corrId);
    switch (msg.kind) {
      case MessageKind::Hello:
        w.putU32(msg.magic);
        w.putVarint(msg.version);
        break;
      case MessageKind::Welcome:
        w.putU32(msg.magic);
        w.putVarint(msg.version);
        w.putVarint(msg.shards);
        break;
      case MessageKind::OpenSession:
        w.putString(msg.tenant);
        w.putVarint(msg.weight);
        w.putVarint(msg.maxInFlight);
        break;
      case MessageKind::SessionOpened:
        w.putU8(static_cast<std::uint8_t>(msg.status));
        w.putVarint(msg.sessionId);
        w.putVarint(msg.resumeToken);
        break;
      case MessageKind::CloseSession:
      case MessageKind::DrainSession:
        w.putVarint(msg.sessionId);
        break;
      case MessageKind::InstallSession:
        w.putBytes(msg.image.data(), msg.image.size());
        break;
      case MessageKind::ResumeSession:
        w.putVarint(msg.sessionId);
        w.putVarint(msg.resumeToken);
        break;
      case MessageKind::Request:
        w.putVarint(msg.sessionId);
        encodeRequest(w, msg.req);
        break;
      case MessageKind::Response:
        encodeResponse(w, msg.resp);
        break;
      case MessageKind::Start:
        break;
      case MessageKind::StatDump:
        w.putBool(msg.includeHost);
        break;
      case MessageKind::StatDumpReply:
        w.putString(msg.text);
        break;
      case MessageKind::Error:
        w.putU8(static_cast<std::uint8_t>(msg.error));
        w.putString(msg.text);
        break;
    }
    appendFrame(out, w.bytes());
}

bool
decodeMessage(const std::vector<std::uint8_t> &payload, Message &out)
{
    BitReader r(payload);
    out = Message{};
    const std::uint8_t kind = r.getU8();
    if (kind > static_cast<std::uint8_t>(MessageKind::ResumeSession))
        return false;
    out.kind = static_cast<MessageKind>(kind);
    out.corrId = r.getVarint();
    switch (out.kind) {
      case MessageKind::Hello:
        out.magic = r.getU32();
        out.version = r.getVarint();
        break;
      case MessageKind::Welcome:
        out.magic = r.getU32();
        out.version = r.getVarint();
        out.shards = r.getVarint();
        break;
      case MessageKind::OpenSession:
        out.tenant = r.getString();
        out.weight = static_cast<unsigned>(r.getVarint());
        out.maxInFlight = static_cast<unsigned>(r.getVarint());
        break;
      case MessageKind::SessionOpened:
        out.status = static_cast<ServiceStatus>(r.getU8());
        out.sessionId = r.getVarint();
        out.resumeToken = r.getVarint();
        break;
      case MessageKind::CloseSession:
      case MessageKind::DrainSession:
        out.sessionId = r.getVarint();
        break;
      case MessageKind::InstallSession:
        out.image = r.getBytes();
        break;
      case MessageKind::ResumeSession:
        out.sessionId = r.getVarint();
        out.resumeToken = r.getVarint();
        break;
      case MessageKind::Request:
        out.sessionId = r.getVarint();
        if (!decodeRequest(r, out.req))
            return false;
        break;
      case MessageKind::Response:
        if (!decodeResponse(r, out.resp))
            return false;
        break;
      case MessageKind::Start:
        break;
      case MessageKind::StatDump:
        out.includeHost = r.getBool();
        break;
      case MessageKind::StatDumpReply:
        out.text = r.getString();
        break;
      case MessageKind::Error:
        out.error = static_cast<WireError>(r.getU8());
        out.text = r.getString();
        break;
    }
    return r.ok();
}

} // namespace rime::service::wire
