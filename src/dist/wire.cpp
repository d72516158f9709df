#include "dist/wire.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/framing.hpp"

namespace graphct::dist {

const char* msg_name(Msg m) {
  switch (m) {
    case Msg::kHello: return "hello";
    case Msg::kHelloAck: return "hello-ack";
    case Msg::kLoadBlock: return "load-block";
    case Msg::kLoadAck: return "load-ack";
    case Msg::kBfsStart: return "bfs-start";
    case Msg::kBfsStep: return "bfs-step";
    case Msg::kBfsFrontier: return "bfs-frontier";
    case Msg::kCcStart: return "cc-start";
    case Msg::kCcStep: return "cc-step";
    case Msg::kCcDelta: return "cc-delta";
    case Msg::kPrStart: return "pr-start";
    case Msg::kPrStep: return "pr-step";
    case Msg::kPrRanks: return "pr-ranks";
    case Msg::kAck: return "ack";
    case Msg::kError: return "error";
    case Msg::kShutdown: return "shutdown";
    case Msg::kBcRun: return "bc-run";
    case Msg::kBcDelta: return "bc-delta";
  }
  return "unknown";
}

void WireWriter::u64(std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
  buf_.append(b, 8);
}

void WireWriter::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  u64(bits);
}

void WireWriter::i64_span(std::span<const std::int64_t> v) {
  u64(v.size());
  // Little-endian hosts (everything we target) append the array in one
  // memcpy; the per-element path stays as the portable fallback.
  const std::size_t bytes = v.size() * sizeof(std::int64_t);
  if constexpr (std::endian::native == std::endian::little) {
    buf_.append(reinterpret_cast<const char*>(v.data()), bytes);
  } else {
    for (const std::int64_t x : v) i64(x);
  }
}

void WireWriter::i32_span(std::span<const std::int64_t> v) {
  u64(v.size());
  const std::size_t at = buf_.size();
  buf_.resize(at + v.size() * sizeof(std::int32_t));
  char* out = buf_.data() + at;
  for (const std::int64_t x : v) {
    const auto u = static_cast<std::uint32_t>(static_cast<std::int32_t>(x));
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out, &u, sizeof(u));  // one store; the loop vectorizes
      out += sizeof(u);
    } else {
      for (int i = 0; i < 4; ++i) *out++ = static_cast<char>(u >> (8 * i));
    }
  }
}

void WireWriter::f64_span(std::span<const double> v) {
  u64(v.size());
  if constexpr (std::endian::native == std::endian::little) {
    buf_.append(reinterpret_cast<const char*>(v.data()),
                v.size() * sizeof(double));
  } else {
    for (const double x : v) f64(x);
  }
}

void WireWriter::str(std::string_view s) {
  u64(s.size());
  buf_.append(s.data(), s.size());
}

void WireReader::need(std::size_t bytes) const {
  if (static_cast<std::size_t>(end_ - p_) < bytes) {
    throw Error("dist wire: truncated payload (need " +
                std::to_string(bytes) + " bytes, have " +
                std::to_string(end_ - p_) + ")");
  }
}

std::uint8_t WireReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(*p_++);
}

std::uint64_t WireReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p_[i]))
         << (8 * i);
  }
  p_ += 8;
  return v;
}

double WireReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

void WireReader::i64_vec(std::vector<std::int64_t>& out) {
  const std::uint64_t n = u64();
  // Guard the multiply below against wrap-around from a corrupt length.
  need(n > static_cast<std::uint64_t>(end_ - p_) ? static_cast<std::size_t>(-1)
                                                 : n * sizeof(std::int64_t));
  out.resize(n);
  if constexpr (std::endian::native == std::endian::little) {
    // An empty vector's data() may be null, which memcpy must not get.
    if (n != 0) std::memcpy(out.data(), p_, n * sizeof(std::int64_t));
    p_ += n * sizeof(std::int64_t);
  } else {
    for (std::uint64_t i = 0; i < n; ++i) out[i] = i64();
  }
}

void WireReader::i32_vec(std::vector<std::int64_t>& out) {
  const std::uint64_t n = u64();
  need(n > static_cast<std::uint64_t>(end_ - p_) ? static_cast<std::size_t>(-1)
                                                 : n * sizeof(std::int32_t));
  out.resize(n);
  const auto* in = reinterpret_cast<const unsigned char*>(p_);
  for (std::uint64_t i = 0; i < n; ++i, in += 4) {
    std::uint32_t u;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&u, in, sizeof(u));
    } else {
      u = static_cast<std::uint32_t>(in[0]) |
          static_cast<std::uint32_t>(in[1]) << 8 |
          static_cast<std::uint32_t>(in[2]) << 16 |
          static_cast<std::uint32_t>(in[3]) << 24;
    }
    out[i] = static_cast<std::int32_t>(u);
  }
  p_ += n * sizeof(std::int32_t);
}

void WireReader::f64_vec(std::vector<double>& out) {
  const std::uint64_t n = u64();
  need(n > static_cast<std::uint64_t>(end_ - p_) ? static_cast<std::size_t>(-1)
                                                 : n * sizeof(double));
  out.resize(n);
  if constexpr (std::endian::native == std::endian::little) {
    if (n != 0) std::memcpy(out.data(), p_, n * sizeof(double));
    p_ += n * sizeof(double);
  } else {
    for (std::uint64_t i = 0; i < n; ++i) out[i] = f64();
  }
}

std::string WireReader::str() {
  const std::uint64_t n = u64();
  need(n);
  std::string s(p_, n);
  p_ += n;
  return s;
}

namespace {

/// Cached obs counters — FrameConn send/recv is the substrate's hot path.
struct DistCounters {
  obs::Counter& msgs_tx;
  obs::Counter& msgs_rx;
  obs::Counter& bytes_tx;
  obs::Counter& bytes_rx;
};

DistCounters& dist_counters() {
  static DistCounters c{
      obs::registry().counter("gct_dist_messages_total{dir=\"tx\"}"),
      obs::registry().counter("gct_dist_messages_total{dir=\"rx\"}"),
      obs::registry().counter("gct_dist_bytes_total{dir=\"tx\"}"),
      obs::registry().counter("gct_dist_bytes_total{dir=\"rx\"}"),
  };
  return c;
}

void write_all(int fd, const char* data, std::size_t bytes) {
  std::size_t sent = 0;
  while (sent < bytes) {
    const ssize_t n = ::send(fd, data + sent, bytes - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error(std::string("dist wire: send failed: ") +
                  std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

/// Read exactly `bytes`. Returns false on EOF before the first byte;
/// throws on EOF mid-buffer or on error.
bool read_all(int fd, char* data, std::size_t bytes) {
  std::size_t got = 0;
  while (got < bytes) {
    const ssize_t n = ::recv(fd, data + got, bytes - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error(std::string("dist wire: recv failed: ") +
                  std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0) return false;
      throw Error("dist wire: connection closed mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

FrameConn::FrameConn(FrameConn&& o) noexcept
    : fd_(o.fd_),
      traffic_(o.traffic_),
      outbox_(std::move(o.outbox_)),
      out_pos_(o.out_pos_),
      in_h_(o.in_h_),
      in_got_(o.in_got_),
      in_have_header_(o.in_have_header_),
      in_payload_(std::move(o.in_payload_)) {
  std::memcpy(in_header_, o.in_header_, sizeof(in_header_));
  o.fd_ = -1;
}

FrameConn& FrameConn::operator=(FrameConn&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    traffic_ = o.traffic_;
    outbox_ = std::move(o.outbox_);
    out_pos_ = o.out_pos_;
    in_h_ = o.in_h_;
    in_got_ = o.in_got_;
    in_have_header_ = o.in_have_header_;
    in_payload_ = std::move(o.in_payload_);
    std::memcpy(in_header_, o.in_header_, sizeof(in_header_));
    o.fd_ = -1;
  }
  return *this;
}

void FrameConn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  outbox_.clear();
  out_pos_ = 0;
  in_have_header_ = false;
  in_got_ = 0;
  in_payload_.clear();
}

void FrameConn::send(Msg type, std::string_view payload) {
  send_frame(framing::encode_frame(static_cast<std::uint8_t>(type), payload));
}

void FrameConn::send_frame(std::string_view frame) {
  GCT_CHECK(valid(), "dist wire: send on closed connection");
  write_all(fd_, frame.data(), frame.size());
  traffic_.messages_sent += 1;
  traffic_.bytes_sent += static_cast<std::int64_t>(frame.size());
  auto& c = dist_counters();
  c.msgs_tx.add(1);
  c.bytes_tx.add(static_cast<std::int64_t>(frame.size()));
}

bool FrameConn::recv(Msg& type, std::string& payload) {
  GCT_CHECK(valid(), "dist wire: recv on closed connection");
  unsigned char header[framing::kFrameHeaderBytes];
  if (!read_all(fd_, reinterpret_cast<char*>(header), sizeof(header))) {
    return false;
  }
  framing::FrameHeader h;
  switch (framing::decode_frame_header(header, h)) {
    case framing::HeaderStatus::kOk:
      break;
    case framing::HeaderStatus::kBadMagic:
      throw Error("dist wire: bad frame magic (stream corrupt or peer is "
                  "not a graphct worker)");
    case framing::HeaderStatus::kBadVersion:
      throw Error("dist wire: unsupported frame version " +
                  std::to_string(h.version));
    case framing::HeaderStatus::kOversized:
      throw Error("dist wire: frame payload length exceeds limit");
  }
  payload.resize(h.payload_len);
  if (h.payload_len > 0 && !read_all(fd_, payload.data(), h.payload_len)) {
    throw Error("dist wire: connection closed mid-frame");
  }
  if (!framing::payload_matches(h, payload)) {
    throw Error("dist wire: frame checksum mismatch");
  }
  type = static_cast<Msg>(h.type);
  const std::int64_t total =
      static_cast<std::int64_t>(framing::kFrameHeaderBytes + h.payload_len);
  traffic_.messages_received += 1;
  traffic_.bytes_received += total;
  auto& c = dist_counters();
  c.msgs_rx.add(1);
  c.bytes_rx.add(total);
  return true;
}

void FrameConn::queue_send(Msg type, std::string_view payload) {
  GCT_CHECK(valid(), "dist wire: send on closed connection");
  const std::string frame =
      framing::encode_frame(static_cast<std::uint8_t>(type), payload);
  // Compact drained bytes before appending so back-to-back rounds reuse
  // the buffer instead of growing it without bound.
  if (out_pos_ == outbox_.size()) {
    outbox_.clear();
    out_pos_ = 0;
  }
  outbox_.append(frame);
  traffic_.messages_sent += 1;
  traffic_.bytes_sent += static_cast<std::int64_t>(frame.size());
  auto& c = dist_counters();
  c.msgs_tx.add(1);
  c.bytes_tx.add(static_cast<std::int64_t>(frame.size()));
}

bool FrameConn::flush_some() {
  GCT_CHECK(valid(), "dist wire: send on closed connection");
  while (out_pos_ < outbox_.size()) {
    const ssize_t n = ::send(fd_, outbox_.data() + out_pos_,
                             outbox_.size() - out_pos_,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
      throw Error(std::string("dist wire: send failed: ") +
                  std::strerror(errno));
    }
    out_pos_ += static_cast<std::size_t>(n);
  }
  outbox_.clear();
  out_pos_ = 0;
  return true;
}

bool FrameConn::recv_some(Msg& type, std::string& payload) {
  GCT_CHECK(valid(), "dist wire: recv on closed connection");
  if (!in_have_header_) {
    while (in_got_ < framing::kFrameHeaderBytes) {
      const ssize_t n =
          ::recv(fd_, reinterpret_cast<char*>(in_header_) + in_got_,
                 framing::kFrameHeaderBytes - in_got_, MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
        throw Error(std::string("dist wire: recv failed: ") +
                    std::strerror(errno));
      }
      if (n == 0) {
        // A reply is owed mid-exchange, so EOF here is never clean.
        throw Error("dist wire: connection closed (worker died)");
      }
      in_got_ += static_cast<std::size_t>(n);
    }
    switch (framing::decode_frame_header(in_header_, in_h_)) {
      case framing::HeaderStatus::kOk:
        break;
      case framing::HeaderStatus::kBadMagic:
        throw Error("dist wire: bad frame magic (stream corrupt or peer is "
                    "not a graphct worker)");
      case framing::HeaderStatus::kBadVersion:
        throw Error("dist wire: unsupported frame version " +
                    std::to_string(in_h_.version));
      case framing::HeaderStatus::kOversized:
        throw Error("dist wire: frame payload length exceeds limit");
    }
    in_have_header_ = true;
    in_payload_.resize(in_h_.payload_len);
    in_got_ = 0;
  }
  while (in_got_ < in_h_.payload_len) {
    const ssize_t n = ::recv(fd_, in_payload_.data() + in_got_,
                             in_h_.payload_len - in_got_, MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
      throw Error(std::string("dist wire: recv failed: ") +
                  std::strerror(errno));
    }
    if (n == 0) throw Error("dist wire: connection closed mid-frame");
    in_got_ += static_cast<std::size_t>(n);
  }
  if (!framing::payload_matches(in_h_, in_payload_)) {
    throw Error("dist wire: frame checksum mismatch");
  }
  type = static_cast<Msg>(in_h_.type);
  payload = std::move(in_payload_);
  in_payload_.clear();
  in_have_header_ = false;
  in_got_ = 0;
  const std::int64_t total = static_cast<std::int64_t>(
      framing::kFrameHeaderBytes + payload.size());
  traffic_.messages_received += 1;
  traffic_.bytes_received += total;
  auto& c = dist_counters();
  c.msgs_rx.add(1);
  c.bytes_rx.add(total);
  return true;
}

FrameConn connect_local(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  GCT_CHECK(fd >= 0, "dist wire: cannot create socket");
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    throw Error("dist wire: cannot connect to worker on 127.0.0.1:" +
                std::to_string(port) + ": " + std::strerror(err));
  }
  return FrameConn(fd);
}

}  // namespace graphct::dist
