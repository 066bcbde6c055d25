#include "net/protocol.hpp"

#include <stdexcept>
#include <string>

namespace icgmm::net {

const char* to_string(MsgType t) noexcept {
  switch (t) {
    case MsgType::kPing: return "PING";
    case MsgType::kPong: return "PONG";
    case MsgType::kAccessBatch: return "ACCESS_BATCH";
    case MsgType::kAccessReply: return "ACCESS_REPLY";
    case MsgType::kStats: return "STATS";
    case MsgType::kStatsReply: return "STATS_REPLY";
    case MsgType::kModelInfo: return "MODEL_INFO";
    case MsgType::kModelInfoReply: return "MODEL_INFO_REPLY";
    case MsgType::kFlush: return "FLUSH";
    case MsgType::kFlushReply: return "FLUSH_REPLY";
    case MsgType::kError: return "ERROR";
    case MsgType::kMetrics: return "METRICS";
    case MsgType::kMetricsReply: return "METRICS_REPLY";
  }
  return "UNKNOWN";
}

const char* to_string(DecodeStatus s) noexcept {
  switch (s) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kNeedMore: return "need-more";
    case DecodeStatus::kBadMagic: return "bad-magic";
    case DecodeStatus::kBadVersion: return "bad-version";
    case DecodeStatus::kBadLength: return "bad-length";
    case DecodeStatus::kBadPayload: return "bad-payload";
  }
  return "unknown";
}

// --- little-endian primitives ---------------------------------------------
// Byte-at-a-time shifts: endian-correct on any host, and the compiler
// collapses them to plain loads/stores on little-endian targets.

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint16_t get_u16(const std::uint8_t* p) noexcept {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

namespace {

void put_header(std::vector<std::uint8_t>& out, MsgType type, std::uint64_t seq,
                std::uint32_t payload_len) {
  put_u32(out, kMagic);
  out.push_back(kProtocolV2);
  out.push_back(static_cast<std::uint8_t>(type));
  put_u16(out, 0);  // flags, reserved
  put_u64(out, seq);
  put_u32(out, payload_len);
  put_u32(out, 0);  // reserved, must be 0
}

}  // namespace

// --- encoders --------------------------------------------------------------

void encode_ping(std::vector<std::uint8_t>& out, std::uint64_t seq) {
  put_header(out, MsgType::kPing, seq, 0);
}

void encode_pong(std::vector<std::uint8_t>& out, std::uint64_t seq) {
  put_header(out, MsgType::kPong, seq, 0);
}

void encode_access_batch(std::vector<std::uint8_t>& out, std::uint64_t seq,
                         std::span<const WireAccess> accesses) {
  if (accesses.size() > kMaxBatch) {
    // Fail loudly at the sender: a frame over the protocol caps would be
    // silently treated as stream poison by the receiving server.
    throw std::length_error("encode_access_batch: " +
                            std::to_string(accesses.size()) + " accesses > " +
                            std::to_string(kMaxBatch));
  }
  const std::uint32_t count = static_cast<std::uint32_t>(accesses.size());
  const std::uint32_t payload =
      4 + count * static_cast<std::uint32_t>(kAccessWireBytes);
  put_header(out, MsgType::kAccessBatch, seq, payload);
  put_u32(out, count);
  for (const WireAccess& a : accesses) {
    put_u64(out, a.page);
    put_u64(out, a.timestamp);
    out.push_back(a.is_write ? 1 : 0);
  }
}

void encode_access_reply(std::vector<std::uint8_t>& out, std::uint64_t seq,
                         const AccessReply& reply) {
  put_header(out, MsgType::kAccessReply, seq, 20);
  put_u32(out, reply.count);
  put_u32(out, reply.hits);
  put_u32(out, reply.admitted);
  put_u32(out, reply.evictions);
  put_u32(out, reply.dirty_evictions);
}

void encode_stats_request(std::vector<std::uint8_t>& out, std::uint64_t seq) {
  put_header(out, MsgType::kStats, seq, 0);
}

void encode_stats_reply(std::vector<std::uint8_t>& out, std::uint64_t seq,
                        const StatsReply& reply) {
  put_header(out, MsgType::kStatsReply, seq, 20 * 8);
  put_u64(out, reply.accesses);
  put_u64(out, reply.hits);
  put_u64(out, reply.read_misses);
  put_u64(out, reply.write_misses);
  put_u64(out, reply.fills);
  put_u64(out, reply.bypasses);
  put_u64(out, reply.evictions);
  put_u64(out, reply.dirty_evictions);
  put_u64(out, reply.inferences);
  put_u64(out, reply.score_batches);
  put_u64(out, reply.model_version);
  put_u64(out, reply.models_published);
  put_u64(out, reply.records_written);
  put_u64(out, reply.records_dropped);
  put_u64(out, reply.record_chunks);
  put_u64(out, reply.shadow_accesses);
  put_u64(out, reply.shadow_hits);
  put_u64(out, reply.shadow_misses);
  put_u64(out, reply.shadow_divergence);
  put_u64(out, reply.shadow_dropped);
}

void encode_model_info_request(std::vector<std::uint8_t>& out,
                               std::uint64_t seq) {
  put_header(out, MsgType::kModelInfo, seq, 0);
}

void encode_model_info_reply(std::vector<std::uint8_t>& out, std::uint64_t seq,
                             const ModelInfoReply& reply) {
  const std::uint16_t name_len =
      static_cast<std::uint16_t>(reply.policy_name.size());
  put_header(out, MsgType::kModelInfoReply, seq, 4 + 4 + 8 + 2 + name_len);
  put_u32(out, reply.shards);
  put_u32(out, reply.components);
  put_u64(out, reply.model_version);
  put_u16(out, name_len);
  out.insert(out.end(), reply.policy_name.begin(), reply.policy_name.end());
}

void encode_flush_request(std::vector<std::uint8_t>& out, std::uint64_t seq) {
  put_header(out, MsgType::kFlush, seq, 0);
}

void encode_flush_reply(std::vector<std::uint8_t>& out, std::uint64_t seq) {
  put_header(out, MsgType::kFlushReply, seq, 0);
}

void encode_error(std::vector<std::uint8_t>& out, std::uint64_t seq,
                  const ErrorReply& reply) {
  const std::uint16_t msg_len =
      static_cast<std::uint16_t>(reply.message.size());
  put_header(out, MsgType::kError, seq, 2 + 2 + msg_len);
  put_u16(out, static_cast<std::uint16_t>(reply.code));
  put_u16(out, msg_len);
  out.insert(out.end(), reply.message.begin(), reply.message.end());
}

void encode_metrics_request(std::vector<std::uint8_t>& out, std::uint64_t seq) {
  put_header(out, MsgType::kMetrics, seq, 0);
}

void encode_metrics_reply(std::vector<std::uint8_t>& out, std::uint64_t seq,
                          const MetricsReply& reply) {
  if (reply.entries.size() > kMaxMetricsEntries) {
    throw std::length_error("encode_metrics_reply: " +
                            std::to_string(reply.entries.size()) +
                            " entries > " +
                            std::to_string(kMaxMetricsEntries));
  }
  std::size_t payload = 4;
  for (const MetricsEntry& e : reply.entries) {
    if (e.name.size() > 0xFFFF) {
      throw std::length_error("encode_metrics_reply: name over u16: " +
                              e.name.substr(0, 64));
    }
    payload += 2 + e.name.size() + 8;
  }
  if (payload > kMaxPayload) {
    throw std::length_error("encode_metrics_reply: payload " +
                            std::to_string(payload) + " > " +
                            std::to_string(kMaxPayload));
  }
  put_header(out, MsgType::kMetricsReply, seq,
             static_cast<std::uint32_t>(payload));
  put_u32(out, static_cast<std::uint32_t>(reply.entries.size()));
  for (const MetricsEntry& e : reply.entries) {
    put_u16(out, static_cast<std::uint16_t>(e.name.size()));
    out.insert(out.end(), e.name.begin(), e.name.end());
    put_u64(out, e.value);
  }
}

// --- decoders --------------------------------------------------------------

DecodeStatus decode_header(std::span<const std::uint8_t> buf,
                           FrameHeader& out) noexcept {
  // Magic and version are judged as soon as their bytes are in: a peer
  // speaking another format may never send 24 bytes (a v1 PING is 16).
  const std::uint8_t* p = buf.data();
  if (buf.size() >= 4 && get_u32(p) != kMagic) return DecodeStatus::kBadMagic;
  if (buf.size() >= 5 && p[4] != kProtocolV2) return DecodeStatus::kBadVersion;
  if (buf.size() < kHeaderBytesV2) return DecodeStatus::kNeedMore;
  const std::uint8_t raw_type = p[5];
  if (raw_type < static_cast<std::uint8_t>(MsgType::kPing) ||
      raw_type > static_cast<std::uint8_t>(MsgType::kMetricsReply)) {
    // An unknown type means we cannot know the peer's framing intent was
    // sane; treat as stream poison rather than guessing.
    return DecodeStatus::kBadPayload;
  }
  out.type = static_cast<MsgType>(raw_type);
  out.flags = get_u16(p + 6);
  if (out.flags != 0) return DecodeStatus::kBadPayload;
  out.seq = get_u64(p + 8);
  out.payload_len = get_u32(p + 16);
  if (get_u32(p + 20) != 0) return DecodeStatus::kBadPayload;  // reserved
  if (out.payload_len > kMaxPayload) return DecodeStatus::kBadLength;
  return DecodeStatus::kOk;
}

DecodeStatus decode_frame(std::span<const std::uint8_t> buf, Frame& frame,
                          std::size_t& consumed) noexcept {
  const DecodeStatus hs = decode_header(buf, frame.header);
  if (hs != DecodeStatus::kOk) return hs;
  const std::size_t total = kHeaderBytesV2 + frame.header.payload_len;
  if (buf.size() < total) return DecodeStatus::kNeedMore;
  frame.payload = buf.subspan(kHeaderBytesV2, frame.header.payload_len);
  consumed = total;
  return DecodeStatus::kOk;
}

DecodeStatus decode_access_batch(const Frame& frame,
                                 std::vector<WireAccess>& out) {
  const std::span<const std::uint8_t> p = frame.payload;
  if (frame.header.type != MsgType::kAccessBatch || p.size() < 4) {
    return DecodeStatus::kBadPayload;
  }
  const std::uint32_t count = get_u32(p.data());
  if (count == 0 || count > kMaxBatch) return DecodeStatus::kBadPayload;
  if (p.size() != 4 + static_cast<std::size_t>(count) * kAccessWireBytes) {
    return DecodeStatus::kBadPayload;
  }
  out.clear();
  out.reserve(count);
  const std::uint8_t* rec = p.data() + 4;
  for (std::uint32_t i = 0; i < count; ++i, rec += kAccessWireBytes) {
    const std::uint8_t flags = rec[16];
    if (flags > 1) return DecodeStatus::kBadPayload;  // reserved bits
    out.push_back({.page = get_u64(rec),
                   .timestamp = get_u64(rec + 8),
                   .is_write = flags != 0});
  }
  return DecodeStatus::kOk;
}

DecodeStatus decode_access_reply(const Frame& frame,
                                 AccessReply& out) noexcept {
  const std::span<const std::uint8_t> p = frame.payload;
  if (frame.header.type != MsgType::kAccessReply || p.size() != 20) {
    return DecodeStatus::kBadPayload;
  }
  out.count = get_u32(p.data());
  out.hits = get_u32(p.data() + 4);
  out.admitted = get_u32(p.data() + 8);
  out.evictions = get_u32(p.data() + 12);
  out.dirty_evictions = get_u32(p.data() + 16);
  return DecodeStatus::kOk;
}

DecodeStatus decode_stats_reply(const Frame& frame, StatsReply& out) noexcept {
  const std::span<const std::uint8_t> p = frame.payload;
  if (frame.header.type != MsgType::kStatsReply || p.size() != 20 * 8) {
    return DecodeStatus::kBadPayload;
  }
  const std::uint8_t* d = p.data();
  out.accesses = get_u64(d);
  out.hits = get_u64(d + 8);
  out.read_misses = get_u64(d + 16);
  out.write_misses = get_u64(d + 24);
  out.fills = get_u64(d + 32);
  out.bypasses = get_u64(d + 40);
  out.evictions = get_u64(d + 48);
  out.dirty_evictions = get_u64(d + 56);
  out.inferences = get_u64(d + 64);
  out.score_batches = get_u64(d + 72);
  out.model_version = get_u64(d + 80);
  out.models_published = get_u64(d + 88);
  out.records_written = get_u64(d + 96);
  out.records_dropped = get_u64(d + 104);
  out.record_chunks = get_u64(d + 112);
  out.shadow_accesses = get_u64(d + 120);
  out.shadow_hits = get_u64(d + 128);
  out.shadow_misses = get_u64(d + 136);
  out.shadow_divergence = get_u64(d + 144);
  out.shadow_dropped = get_u64(d + 152);
  return DecodeStatus::kOk;
}

DecodeStatus decode_model_info_reply(const Frame& frame, ModelInfoReply& out) {
  const std::span<const std::uint8_t> p = frame.payload;
  if (frame.header.type != MsgType::kModelInfoReply || p.size() < 18) {
    return DecodeStatus::kBadPayload;
  }
  out.shards = get_u32(p.data());
  out.components = get_u32(p.data() + 4);
  out.model_version = get_u64(p.data() + 8);
  const std::uint16_t name_len = get_u16(p.data() + 16);
  if (p.size() != 18u + name_len) return DecodeStatus::kBadPayload;
  out.policy_name.assign(reinterpret_cast<const char*>(p.data() + 18),
                         name_len);
  return DecodeStatus::kOk;
}

DecodeStatus decode_error(const Frame& frame, ErrorReply& out) {
  const std::span<const std::uint8_t> p = frame.payload;
  if (frame.header.type != MsgType::kError || p.size() < 4) {
    return DecodeStatus::kBadPayload;
  }
  out.code = static_cast<ErrorCode>(get_u16(p.data()));
  const std::uint16_t msg_len = get_u16(p.data() + 2);
  if (p.size() != 4u + msg_len) return DecodeStatus::kBadPayload;
  out.message.assign(reinterpret_cast<const char*>(p.data() + 4), msg_len);
  return DecodeStatus::kOk;
}

DecodeStatus decode_metrics_reply(const Frame& frame, MetricsReply& out) {
  const std::span<const std::uint8_t> p = frame.payload;
  if (frame.header.type != MsgType::kMetricsReply || p.size() < 4) {
    return DecodeStatus::kBadPayload;
  }
  const std::uint32_t count = get_u32(p.data());
  if (count > kMaxMetricsEntries) return DecodeStatus::kBadPayload;
  out.entries.clear();
  out.entries.reserve(count);
  std::size_t off = 4;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (p.size() - off < 2) return DecodeStatus::kBadPayload;
    const std::uint16_t name_len = get_u16(p.data() + off);
    off += 2;
    if (p.size() - off < static_cast<std::size_t>(name_len) + 8) {
      return DecodeStatus::kBadPayload;
    }
    MetricsEntry entry;
    entry.name.assign(reinterpret_cast<const char*>(p.data() + off), name_len);
    off += name_len;
    entry.value = get_u64(p.data() + off);
    off += 8;
    out.entries.push_back(std::move(entry));
  }
  if (off != p.size()) return DecodeStatus::kBadPayload;  // trailing bytes
  return DecodeStatus::kOk;
}

DecodeStatus decode_empty(const Frame& frame) noexcept {
  return frame.payload.empty() ? DecodeStatus::kOk : DecodeStatus::kBadPayload;
}

}  // namespace icgmm::net
