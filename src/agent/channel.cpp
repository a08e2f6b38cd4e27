#include "agent/channel.hpp"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>

namespace nexit::agent {

namespace {

/// Shared state of an in-memory duplex pipe: one contiguous queue per
/// direction, handed over whole by receive().
struct PipeState {
  proto::Bytes a_to_b;
  proto::Bytes b_to_a;
  bool closed = false;
};

class InMemoryChannel : public Channel {
 public:
  InMemoryChannel(std::shared_ptr<PipeState> state, bool is_a)
      : state_(std::move(state)), is_a_(is_a) {}

  void send(const proto::Bytes& data) override {
    if (state_->closed) throw std::runtime_error("channel closed");
    auto& q = is_a_ ? state_->a_to_b : state_->b_to_a;
    q.insert(q.end(), data.begin(), data.end());
  }

  proto::Bytes receive() override {
    proto::Bytes out;
    out.swap(is_a_ ? state_->b_to_a : state_->a_to_b);
    return out;
  }

  [[nodiscard]] bool readable() const override {
    return !(is_a_ ? state_->b_to_a : state_->a_to_b).empty();
  }

  [[nodiscard]] bool closed() const override { return state_->closed; }
  void close() override { state_->closed = true; }

 private:
  std::shared_ptr<PipeState> state_;
  bool is_a_;
};

class SocketChannel : public Channel {
 public:
  explicit SocketChannel(int fd) : fd_(fd) {}
  ~SocketChannel() override { close(); }

  void send(const proto::Bytes& data) override {
    if (fd_ < 0) throw std::runtime_error("channel closed");
    // Busy-waiting on EAGAIN here would deadlock when both endpoints are
    // pumped by the same thread (the runtime's Session) and a frame
    // overflows the socket buffer: the only reader is the peer we would be
    // starving. Queue what the kernel will not take and flush it from the
    // next send()/receive() call instead.
    if (!pending_out_.empty()) {
      pending_out_.insert(pending_out_.end(), data.begin(), data.end());
      flush_pending();
      return;
    }
    const std::size_t sent = write_some(data.data(), data.size());
    if (sent < data.size())
      pending_out_.assign(data.begin() + static_cast<std::ptrdiff_t>(sent),
                          data.end());
  }

  proto::Bytes receive() override {
    proto::Bytes out;
    if (fd_ < 0) return out;
    flush_pending();
    std::uint8_t buf[65536];
    for (;;) {
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n > 0) {
        out.insert(out.end(), buf, buf + n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;  // interrupted, not drained
      if (n == 0) {  // peer closed
        close();
      }
      break;  // EAGAIN or closed: return what we have
    }
    return out;
  }

  bool flush() override {
    flush_pending();
    return pending_out_.empty();
  }

  // Kernel buffers are invisible without a syscall; the reactor polls
  // poll_fd() instead of asking readable().
  [[nodiscard]] bool readable() const override { return false; }
  [[nodiscard]] int poll_fd() const override { return fd_; }

  [[nodiscard]] bool closed() const override { return fd_ < 0; }

  void close() override {
    if (fd_ >= 0) {
      // Best-effort: hand any queued overflow to the kernel before teardown
      // (one non-blocking pass — a blocking flush could deadlock against a
      // same-thread peer, the very thing the queue exists to avoid). Bytes
      // the kernel still refuses are dropped, as with any abortive close.
      flush_pending();
      ::close(fd_);
      fd_ = -1;
      pending_out_.clear();
    }
  }

 private:
  /// Writes as much as the kernel accepts right now; returns bytes taken.
  std::size_t write_some(const std::uint8_t* data, std::size_t size) {
    std::size_t sent = 0;
    while (sent < size) {
      const ssize_t n = ::write(fd_, data + sent, size - sent);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        throw std::runtime_error("socket write failed");
      }
      sent += static_cast<std::size_t>(n);
    }
    return sent;
  }

  void flush_pending() {
    if (pending_out_.empty() || fd_ < 0) return;
    const std::size_t sent = write_some(pending_out_.data(), pending_out_.size());
    pending_out_.erase(pending_out_.begin(),
                       pending_out_.begin() + static_cast<std::ptrdiff_t>(sent));
  }

  int fd_;
  proto::Bytes pending_out_;
};

}  // namespace

std::pair<std::unique_ptr<Channel>, std::unique_ptr<Channel>>
make_in_memory_channel_pair() {
  auto state = std::make_shared<PipeState>();
  return {std::make_unique<InMemoryChannel>(state, true),
          std::make_unique<InMemoryChannel>(state, false)};
}

std::pair<std::unique_ptr<Channel>, std::unique_ptr<Channel>>
make_socket_channel_pair() {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
    throw std::runtime_error("socketpair failed");
  for (int fd : fds) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
  return {std::make_unique<SocketChannel>(fds[0]),
          std::make_unique<SocketChannel>(fds[1])};
}

std::unique_ptr<Channel> make_fd_channel(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  return std::make_unique<SocketChannel>(fd);
}

FaultyChannel::FaultyChannel(std::unique_ptr<Channel> inner,
                             double drop_probability, double corrupt_probability,
                             std::uint64_t seed)
    : inner_(std::move(inner)), drop_p_(drop_probability),
      corrupt_p_(corrupt_probability), rng_(seed) {}

void FaultyChannel::send(const proto::Bytes& data) {
  if (rng_.next_bool(drop_p_)) return;  // dropped on the floor
  if (!data.empty() && rng_.next_bool(corrupt_p_)) {
    proto::Bytes corrupted = data;
    corrupted[rng_.pick_index(corrupted.size())] ^= 0x40;
    inner_->send(corrupted);
    return;
  }
  inner_->send(data);
}

proto::Bytes FaultyChannel::receive() { return inner_->receive(); }
bool FaultyChannel::readable() const { return inner_->readable(); }
int FaultyChannel::poll_fd() const { return inner_->poll_fd(); }
bool FaultyChannel::closed() const { return inner_->closed(); }
void FaultyChannel::close() { inner_->close(); }
bool FaultyChannel::flush() { return inner_->flush(); }

}  // namespace nexit::agent
