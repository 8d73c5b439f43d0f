#include "net/message.h"

#include <algorithm>

namespace rpr::net {

void send_header(Socket& sock, std::uint64_t op_id,
                 std::uint64_t payload_len) {
  MessageHeader h;
  h.op_id = op_id;
  h.payload_len = payload_len;
  std::uint8_t buf[sizeof(MessageHeader)];
  std::memcpy(buf, &h, sizeof(h));
  sock.write_all({buf, sizeof(buf)});
}

bool send_payload_chunk(Socket& sock, std::span<const std::uint8_t> payload,
                        util::Pacer& pacer, std::size_t pace_chunk,
                        std::uint64_t chunk_delay_ns,
                        const std::function<bool()>& cancel) {
  if (pace_chunk == 0 && !cancel) {
    sock.write_all(payload);
    return true;
  }
  // Chunked streaming: cancellation needs chunk boundaries even when no
  // pacing was requested.
  const std::size_t chunk = pace_chunk != 0 ? pace_chunk : (64u << 10);
  const double chunk_s = static_cast<double>(chunk_delay_ns) * 1e-9;
  std::size_t off = 0;
  while (off < payload.size()) {
    if (cancel && cancel()) return false;
    const std::size_t len = std::min(chunk, payload.size() - off);
    sock.write_all(payload.subspan(off, len));
    off += len;
    if (chunk_delay_ns != 0) {
      pacer.owe(chunk_s * static_cast<double>(len) /
                static_cast<double>(chunk));
      pacer.wait();
    }
  }
  return true;
}

bool send_value(Socket& sock, std::uint64_t op_id,
                std::span<const std::uint8_t> payload, std::size_t pace_chunk,
                std::uint64_t chunk_delay_ns,
                const std::function<bool()>& cancel) {
  if (cancel && cancel()) return false;
  send_header(sock, op_id, payload.size());
  util::Pacer pacer;
  return send_payload_chunk(sock, payload, pacer, pace_chunk, chunk_delay_ns,
                            cancel);
}

ValueHeader recv_header(Socket& sock, std::uint64_t max_payload) {
  std::uint8_t buf[sizeof(MessageHeader)];
  sock.read_exact({buf, sizeof(buf)});
  MessageHeader h;
  std::memcpy(&h, buf, sizeof(h));
  if (h.magic != kMagic) {
    throw std::runtime_error("recv_header: bad magic");
  }
  if (h.payload_len > max_payload) {
    throw std::runtime_error("recv_header: oversized payload");
  }
  return {h.op_id, h.payload_len};
}

}  // namespace rpr::net
