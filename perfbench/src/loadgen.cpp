#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <ctime>
#include <memory>
#include <span>

#include "net/wire_protocol.hpp"

namespace perfbench {
namespace {

namespace net = rtmobile::net;

/// One stream's connection.
struct Conn {
  int fd = -1;
  std::size_t stream = 0;  // ledger index
  std::size_t slot = 0;
  std::vector<float> audio;
  std::size_t next_chunk = 0;
  bool opened = false;
  bool sending = true;  // chunks (or FINISH) still to send
  bool final_seen = false;
  bool dead = false;
  net::FrameDecoder decoder;
  std::vector<std::uint8_t> outbox;
  std::size_t out_pos = 0;
};

struct Slot {
  double next_t0_us = 0.0;
  bool has_sender = false;
  bool done = false;
};

/// A stream's connection is opened this long before its first chunk is
/// due: enough for the OPEN handshake, late enough that the slot's
/// previous stream has usually finished, so the router places the new
/// stream against settled shard loads.
constexpr double kOpenLeadUs = 10e3;

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

class OpenLoop {
 public:
  OpenLoop(const LoadgenConfig& config, Ledger& ledger)
      : config_(config), ledger_(ledger) {
    interval_us_ = 0.1 * static_cast<double>(config.connections) /
                   config.offered_load * 1e6;
    slots_.resize(config.connections);
    for (std::size_t k = 0; k < slots_.size(); ++k) {
      slots_[k].next_t0_us =
          config.start_us + static_cast<double>(k) * interval_us_ /
                                static_cast<double>(slots_.size());
    }
  }

  LoadgenResult run() {
    double last_tick_us = 0.0;
    for (;;) {
      const double now = now_us();
      launch_streams(now);
      send_due_chunks(now);
      if (conns_.empty() &&
          std::all_of(slots_.begin(), slots_.end(),
                      [](const Slot& s) { return s.done; })) {
        break;
      }
      if (config_.on_tick && now - last_tick_us >= 1000.0) {
        config_.on_tick(now);
        last_tick_us = now;
      }
      wait_and_receive(now);
      reap();
    }
    if (config_.on_tick) config_.on_tick(now_us());
    for (const auto& c : conns_) ::close(c->fd);
    conns_.clear();
    return std::move(result_);
  }

 private:
  void launch_streams(double now) {
    for (std::size_t k = 0; k < slots_.size(); ++k) {
      Slot& slot = slots_[k];
      if (slot.done || slot.has_sender) continue;
      if (slot.next_t0_us >= config_.stop_us) {
        slot.done = true;
        continue;
      }
      if (now < slot.next_t0_us - kOpenLeadUs) continue;
      auto conn = std::make_unique<Conn>();
      conn->slot = k;
      conn->audio = config_.audio(launched_);
      StreamRecord record;
      record.audio_index = launched_++;
      record.samples = conn->audio.size();
      record.t0_us = slot.next_t0_us;
      record.interval_us = interval_us_;
      conn->stream = ledger_.add(record);
      // The slot's clock advances by exactly the stream's audio (its last
      // chunk is usually short), so the offered load is exact.
      slot.next_t0_us += static_cast<double>(record.samples) /
                         static_cast<double>(kChunkSamples) * interval_us_;
      conn->fd = connect_loopback(config_.port);
      if (conn->fd < 0) {
        ledger_.fail(conn->stream);
        continue;  // the slot moves on to its next stream
      }
      slot.has_sender = true;
      net::append_open(conn->outbox, net::OpenRequest{});  // greedy decode
      flush(*conn);
      conns_.push_back(std::move(conn));
    }
  }

  void send_due_chunks(double now) {
    for (const auto& c : conns_) {
      if (!c->opened || !c->sending || c->dead) continue;
      const StreamRecord& record = ledger_.stream(c->stream);
      const std::size_t chunks = record.chunks();
      while (c->next_chunk < chunks) {
        const double due =
            record.t0_us + static_cast<double>(c->next_chunk) *
                               record.interval_us;
        if (due > now) break;
        const std::size_t offset = c->next_chunk * kChunkSamples;
        const std::size_t n =
            std::min(kChunkSamples, c->audio.size() - offset);
        net::append_audio(c->outbox, std::span<const float>(
                                         c->audio.data() + offset, n));
        result_.late_ms.push_back((now - due) * 1e-3);
        ++c->next_chunk;
        if (c->next_chunk == chunks) {
          net::append_finish(c->outbox);
          c->sending = false;
          slots_[c->slot].has_sender = false;
        }
      }
      flush(*c);
    }
  }

  void flush(Conn& c) {
    while (!c.dead && c.out_pos < c.outbox.size()) {
      const ssize_t n =
          ::send(c.fd, c.outbox.data() + c.out_pos,
                 c.outbox.size() - c.out_pos, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        c.out_pos += static_cast<std::size_t>(n);
        result_.bytes_sent += static_cast<std::uint64_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      fail(c);
    }
    if (c.out_pos == c.outbox.size()) {
      c.outbox.clear();
      c.out_pos = 0;
    }
  }

  void fail(Conn& c) {
    if (!c.final_seen) ledger_.fail(c.stream);
    c.dead = true;
  }

  /// Sleeps until the next chunk is due (at most 1 ms) or a socket is
  /// ready, then reads everything readable.
  void wait_and_receive(double now) {
    double next_due = now + 1000.0;
    for (const auto& c : conns_) {
      if (!c->opened || !c->sending) continue;
      const StreamRecord& record = ledger_.stream(c->stream);
      next_due = std::min(
          next_due, record.t0_us + static_cast<double>(c->next_chunk) *
                                       record.interval_us);
    }
    for (const Slot& slot : slots_) {
      if (!slot.done && !slot.has_sender) {
        next_due = std::min(next_due, slot.next_t0_us - kOpenLeadUs);
      }
    }
    const double wait_us = std::max(0.0, next_due - now);
    timespec timeout{};
    timeout.tv_sec = static_cast<time_t>(wait_us * 1e-6);
    timeout.tv_nsec = static_cast<long>(
        (wait_us - static_cast<double>(timeout.tv_sec) * 1e6) * 1e3);

    pollfds_.clear();
    for (const auto& c : conns_) {
      short events = POLLIN;
      if (c->out_pos < c->outbox.size()) events |= POLLOUT;
      pollfds_.push_back({c->fd, events, 0});
    }
    if (::ppoll(pollfds_.data(), pollfds_.size(), &timeout, nullptr) <= 0) {
      return;
    }
    for (std::size_t i = 0; i < pollfds_.size(); ++i) {
      Conn& c = *conns_[i];
      if ((pollfds_[i].revents & POLLOUT) != 0) flush(c);
      if ((pollfds_[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        receive(c);
      }
    }
  }

  void receive(Conn& c) {
    std::array<std::uint8_t, 65536> buf;
    while (!c.dead) {
      const ssize_t n = ::recv(c.fd, buf.data(), buf.size(), MSG_DONTWAIT);
      if (n == 0) {  // server closed: normal after our CLOSE
        fail(c);
        return;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) fail(c);
        return;
      }
      const double received = now_us();
      result_.bytes_received += static_cast<std::uint64_t>(n);
      c.decoder.feed({buf.data(), static_cast<std::size_t>(n)});
      net::Frame frame;
      while (!c.dead && c.decoder.next(frame)) handle(c, frame, received);
      if (c.decoder.failed()) fail(c);
      result_.deframe_us += now_us() - received;
    }
  }

  void handle(Conn& c, const net::Frame& frame, double received) {
    ++result_.frames_received;
    switch (frame.type) {
      case net::FrameType::kOpened:
        c.opened = true;
        return;
      case net::FrameType::kPartial:
      case net::FrameType::kFinal:
      case net::FrameType::kDegraded:
      case net::FrameType::kRejected:
      case net::FrameType::kAborted: {
        rtmobile::speech::StreamEvent event;
        if (!net::decode_event(frame.payload, event)) {
          fail(c);
          return;
        }
        ledger_.on_event(c.stream, event, received);
        if (event.is_final && !c.final_seen) {
          c.final_seen = true;
          net::append_close(c.outbox);
          flush(c);
        }
        return;
      }
      default:  // kError or a frame a server must never send
        fail(c);
        return;
    }
  }

  void reap() {
    for (auto it = conns_.begin(); it != conns_.end();) {
      Conn& c = **it;
      if (c.dead) {
        if (c.sending) slots_[c.slot].has_sender = false;
        ::close(c.fd);
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }

  const LoadgenConfig& config_;
  Ledger& ledger_;
  double interval_us_ = 0.0;
  std::vector<Slot> slots_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<pollfd> pollfds_;
  std::size_t launched_ = 0;
  LoadgenResult result_;
};

}  // namespace

LoadgenResult run_open_loop(const LoadgenConfig& config, Ledger& ledger) {
  return OpenLoop(config, ledger).run();
}

}  // namespace perfbench
