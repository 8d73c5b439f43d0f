// Wire framing for the networked runtime.
//
// One message = one intermediate/raw block value in flight, tagged with the
// plan op id that produced it so the receiver can satisfy its combines'
// dependencies. Fixed little-endian header followed by the payload.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <stdexcept>

#include "net/socket.h"
#include "util/pace.h"

namespace rpr::net {

inline constexpr std::uint32_t kMagic = 0x52505231;  // "RPR1"

struct MessageHeader {
  std::uint32_t magic = kMagic;
  std::uint32_t reserved = 0;
  std::uint64_t op_id = 0;        ///< plan op that produced the value
  std::uint64_t payload_len = 0;  ///< bytes following the header
};
static_assert(sizeof(MessageHeader) == 24);

/// Sends one value; `pace_chunk` and `chunk_delay_ns` implement sender-side
/// bandwidth shaping (wondershaper's role in the paper's setup): each
/// `pace_chunk` bytes owe `chunk_delay_ns` of link time, and after each
/// chunk the sender sleeps until its start plus the link time owed so far
/// (util/pace.h), so the stream never beats the link and sleep overhead
/// does not add up per chunk; a delay of 0 makes no sleep call. A non-empty
/// `cancel` callback is polled between chunks (chunked sending is then
/// forced even without pacing); returning true abandons the stream
/// mid-payload — send_value returns false and the receiver sees a short
/// read. Returns true when the value was fully sent.
bool send_value(Socket& sock, std::uint64_t op_id,
                std::span<const std::uint8_t> payload,
                std::size_t pace_chunk = 0, std::uint64_t chunk_delay_ns = 0,
                const std::function<bool()>& cancel = {});

/// Writes just the framing header, declaring a `payload_len`-byte payload
/// to follow. Slice-pipelined senders use this once per message, then
/// stream the payload with send_payload_chunk as input slices arrive.
void send_header(Socket& sock, std::uint64_t op_id, std::uint64_t payload_len);

/// Streams one contiguous piece of a message payload already framed by
/// send_header, with the same pacing/cancellation contract as send_value,
/// on `pacer`'s deadline: calls that share one pacer are paced as one
/// stream (a short chunk owes its share of the delay). Returns false iff
/// `cancel` fired (the stream is then abandoned mid-payload and the socket
/// must be discarded).
bool send_payload_chunk(Socket& sock, std::span<const std::uint8_t> payload,
                        util::Pacer& pacer, std::size_t pace_chunk,
                        std::uint64_t chunk_delay_ns,
                        const std::function<bool()>& cancel = {});

/// A validated frame header; the payload (payload_len bytes) is still on
/// the wire, to be drained by the caller with Socket::read_exact, straight
/// into the op's pre-sized value buffer.
struct ValueHeader {
  std::uint64_t op_id = 0;
  std::uint64_t payload_len = 0;
};

/// Receives and validates one frame header; throws on malformed input.
[[nodiscard]] ValueHeader recv_header(Socket& sock, std::uint64_t max_payload);

}  // namespace rpr::net
