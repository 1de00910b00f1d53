#include "server/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace doda::server {

/// The write side of one connection, shared between the reader thread and
/// any subscriber sinks living in the job queue. `mutex` serializes whole
/// frames; `open` flips once a write fails (peer gone) so later frames
/// are dropped instead of retried.
struct Server::WriteHalf {
  int fd = -1;
  std::mutex mutex;
  bool open = true;
};

struct Server::Connection {
  /// Owned by whoever wins the exchange in closeFd — the reader thread on
  /// normal disconnect, stop() at shutdown.
  std::atomic<int> fd{-1};
  std::shared_ptr<WriteHalf> write;
  std::thread reader;
  std::atomic<bool> done{false};

  void closeFd() {
    const int expected = fd.exchange(-1);
    if (expected >= 0) ::close(expected);
  }
};

namespace {

bool sendAll(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    // MSG_NOSIGNAL: a vanished peer must surface as EPIPE, not SIGPIPE.
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Server::Server(Service& service, ServerOptions options)
    : service_(service), options_(std::move(options)) {}

Server::~Server() { stop(); }

void Server::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1)
    throw std::runtime_error("invalid bind address " + options_.bind_address);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0)
    throw std::runtime_error(std::string("bind: ") + std::strerror(errno));
  if (::listen(listen_fd_, 64) != 0)
    throw std::runtime_error(std::string("listen: ") + std::strerror(errno));

  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0)
    throw std::runtime_error(std::string("getsockname: ") +
                             std::strerror(errno));
  port_ = ntohs(addr.sin_port);

  accept_thread_ = std::thread([this] { acceptLoop(); });
}

void Server::stop() {
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  // shutdown unblocks accept() on every platform we care about. The
  // descriptor is closed only once the accept thread has exited, because
  // that thread reads listen_fd_ until then.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  std::vector<std::shared_ptr<Connection>> connections;
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    connections.swap(connections_);
  }
  for (const auto& connection : connections) {
    const int fd = connection->fd.load();
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);  // unblock the reader
  }
  for (const auto& connection : connections) {
    if (connection->reader.joinable()) connection->reader.join();
    {
      const std::lock_guard<std::mutex> lock(connection->write->mutex);
      connection->write->open = false;
    }
    connection->closeFd();
  }
}

void Server::acceptLoop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed: shutting down
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto connection = std::make_shared<Connection>();
    connection->fd.store(fd);
    connection->write = std::make_shared<WriteHalf>();
    connection->write->fd = fd;
    {
      const std::lock_guard<std::mutex> lock(connections_mutex_);
      if (stopped_) {
        ::close(fd);
        return;
      }
      // Reap connections whose reader already finished (peer hung up), so
      // the registry tracks live connections, not connection history.
      std::erase_if(connections_,
                    [](const std::shared_ptr<Connection>& c) {
                      if (!c->done.load()) return false;
                      if (c->reader.joinable()) c->reader.join();
                      return true;
                    });
      connections_.push_back(connection);
    }
    connection->reader =
        std::thread([this, connection] { serveConnection(connection); });
  }
}

bool Server::writeFrame(WriteHalf& half, const Json& frame) {
  std::string line = frame.dump();
  line.push_back('\n');
  const std::lock_guard<std::mutex> lock(half.mutex);
  if (!half.open) return false;
  if (!sendAll(half.fd, line.data(), line.size())) {
    half.open = false;
    return false;
  }
  return true;
}

void Server::serveConnection(std::shared_ptr<Connection> connection) {
  const std::shared_ptr<WriteHalf> write = connection->write;
  // The sink outlives the connection thread (subscriptions hold it until
  // the queue drops them on the first failed write).
  const StreamSink sink = [write](const Json& frame) {
    return writeFrame(*write, frame);
  };

  const std::size_t frame_cap = service_.options().max_frame_bytes;
  // Discard-mode threshold: past the cap (plus framing slack) the line can
  // only ever produce kFrameTooLarge, so stop buffering its bytes.
  const std::size_t buffer_cap = frame_cap + 1024;

  std::string buffer;
  bool discarding = false;
  bool peer_alive = true;
  char chunk[4096];
  while (peer_alive) {
    const int fd = connection->fd.load();
    if (fd < 0) break;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // disconnect or shutdown; partial line is dropped
    for (ssize_t i = 0; i < n && peer_alive; ++i) {
      const char c = chunk[i];
      if (c != '\n') {
        if (discarding) continue;
        buffer.push_back(c);
        if (buffer.size() > buffer_cap) {
          writeFrame(*write,
                     makeError(Json(nullptr), ErrorCode::kFrameTooLarge,
                               "frame exceeds " +
                                   std::to_string(frame_cap) + " bytes"));
          buffer.clear();
          discarding = true;
        }
        continue;
      }
      if (discarding) {  // the oversized line finally ended
        discarding = false;
        continue;
      }
      if (!buffer.empty() && buffer.back() == '\r') buffer.pop_back();
      if (buffer.empty()) continue;  // blank lines are keep-alives
      Handled handled = service_.handle(buffer, sink);
      buffer.clear();
      peer_alive = writeFrame(*write, handled.response);
      // The hook runs even when the peer vanished mid-reply: job
      // activation must not depend on the client still listening.
      if (handled.after_reply) handled.after_reply();
    }
  }
  // Order matters: mark the write half closed under its mutex BEFORE
  // closing the descriptor, so a subscriber sink can never write to a
  // recycled fd number.
  {
    const std::lock_guard<std::mutex> lock(write->mutex);
    write->open = false;
  }
  connection->closeFd();
  connection->done.store(true);
}

}  // namespace doda::server
