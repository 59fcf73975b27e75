// Blocking wire-protocol client: the reference implementation the
// loopback tests and the example load generator share.
//
// One WireClient = one TCP connection = one stream. Sends are blocking
// writes (the OS buffers or the caller waits — exactly the client-side
// backpressure the server's paused-read design produces); receives
// deframe blocking reads into typed replies.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/wire_protocol.hpp"
#include "speech/streaming_decoder.hpp"

namespace rtmobile::net {

/// One deframed server reply, decoded.
struct ServerMessage {
  FrameType type = FrameType::kError;
  std::uint64_t handle_id = 0;  // kOpened
  /// kPartial/kFinal/kDegraded/kRejected/kAborted
  speech::StreamEvent event;
  WireError error = WireError::kProtocol;  // kError
  std::string error_message;               // kError
};

/// Bounded-retry policy for open_with_retry. The server answers
/// admission-path congestion with a typed kBackpressureOverflow error
/// and closes the connection, so each retry is a full reconnect;
/// exponential backoff with jitter keeps a retrying fleet from
/// re-stampeding the admission path in lockstep.
struct OpenRetryPolicy {
  int max_attempts = 5;
  std::chrono::milliseconds initial_backoff{10};
  std::chrono::milliseconds max_backoff{500};
  /// Seeds the jitter stream — vary per client so backoffs decorrelate;
  /// fix it in tests for reproducible schedules.
  std::uint64_t jitter_seed = 1;
};

class WireClient {
 public:
  WireClient() = default;
  ~WireClient();

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;
  WireClient(WireClient&& other) noexcept;
  WireClient& operator=(WireClient&& other) noexcept;

  /// Connects to `address:port`; throws std::runtime_error on failure.
  void connect(const std::string& address, std::uint16_t port);
  [[nodiscard]] bool connected() const { return fd_ >= 0; }
  /// Half-closes the outbound direction / closes the socket entirely.
  void disconnect();

  // ---- sends (blocking; throw std::runtime_error on a dead socket) ----
  void send_open(const OpenRequest& request);
  void send_audio(std::span<const float> samples);
  void send_finish();
  void send_close();

  // ---- receives ----
  /// Blocks for the next server frame. nullopt = orderly server close.
  /// Throws std::runtime_error on socket errors or garbled frames.
  [[nodiscard]] std::optional<ServerMessage> read_message();
  /// Convenience open handshake: send_open + read until kOpened or
  /// kError. Returns nullopt (and fills `error`) on a typed refusal.
  [[nodiscard]] std::optional<std::uint64_t> open(const OpenRequest& request,
                                                 WireError* error = nullptr);
  /// open() that rides out transient failures: kBackpressureOverflow
  /// refusals, connect failures, and mid-handshake disconnects trigger a
  /// reconnect after exponential backoff with jitter, up to
  /// `policy.max_attempts`. Non-transient refusals (over-budget,
  /// protocol) return immediately. Uses the address from the last
  /// connect(); may be called disconnected.
  [[nodiscard]] std::optional<std::uint64_t> open_with_retry(
      const OpenRequest& request, const OpenRetryPolicy& policy,
      WireError* error = nullptr);
  /// Reads events until the final one (is_final) arrives, appending each
  /// to `events`. Returns the wire error if the server failed the stream
  /// instead, nullopt on success.
  [[nodiscard]] std::optional<WireError> collect_until_final(
      std::vector<speech::StreamEvent>& events);

 private:
  void send_bytes(const std::vector<std::uint8_t>& bytes);

  int fd_ = -1;
  FrameDecoder decoder_;
  std::vector<std::uint8_t> send_buf_;
  // Last connect() target, kept so open_with_retry can reconnect.
  std::string host_;
  std::uint16_t port_ = 0;
};

}  // namespace rtmobile::net
