// Regression tests for the latent blocking-I/O assumptions surfaced by the
// reactor's non-blocking sockets (src/service/socket.{hpp,cpp}):
//
//   * send_some() must report partial progress on a full send buffer
//     instead of treating it as failure — the reactor's reply path depends
//     on resuming exactly where the kernel stopped.
//   * send_all()/recv_some() must survive EINTR (a signal landing mid-call
//     retries instead of dropping the connection), and the poll(2) loops in
//     accept()/tcp_connect() must retry EINTR with the remaining timeout
//     instead of reporting a spurious timeout.
//   * accept_now() on a non-blocking listener returns immediately with or
//     without a queued connection and never blocks.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <netinet/in.h>
#include <pthread.h>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <vector>

#include "service/socket.hpp"

namespace dcs::service {
namespace {

/// Loopback listener + connected pair helper.
struct Pair {
  TcpListener listener;
  TcpSocket client;
  TcpSocket server;

  static Pair make() {
    Pair pair;
    auto listener = TcpListener::listen("127.0.0.1", 0);
    EXPECT_TRUE(listener.has_value());
    pair.listener = std::move(*listener);
    auto client = tcp_connect("127.0.0.1", pair.listener.port(), 1000);
    EXPECT_TRUE(client.has_value());
    pair.client = std::move(*client);
    auto server = pair.listener.accept(1000);
    EXPECT_TRUE(server.has_value());
    pair.server = std::move(*server);
    return pair;
  }
};

/// A non-blocking sender into a tiny-buffered pipe must hit would_block
/// with partial progress, and resuming from the reported offset must
/// deliver every byte intact — the reactor reply-path contract.
TEST(ServiceSocketIo, SendSomeReportsPartialProgressAndResumes) {
  Pair pair = Pair::make();
  // Shrink both kernel buffers so a modest payload cannot fit in flight.
  const int tiny = 4096;
  ::setsockopt(pair.server.fd(), SOL_SOCKET, SO_SNDBUF, &tiny, sizeof tiny);
  ::setsockopt(pair.client.fd(), SOL_SOCKET, SO_RCVBUF, &tiny, sizeof tiny);
  pair.server.set_nonblocking(true);

  // Payload much larger than the buffers: must stall at least once.
  std::string payload(128 * 1024, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<char>(i * 1315423911u >> 3);

  std::string received;
  std::thread reader([&] {
    pair.client.set_timeouts(2000, 2000);
    char buffer[16 * 1024];
    while (received.size() < payload.size()) {
      // Throttle the head of the stream so the writer reliably hits
      // EAGAIN at least once, then drain at full speed.
      if (received.size() < 32 * 1024)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      const RecvResult got = pair.client.recv_some(buffer, sizeof buffer);
      if (got.closed || got.error) break;
      received.append(buffer, got.bytes);
    }
  });

  std::size_t offset = 0;
  std::uint64_t stalls = 0;
  while (offset < payload.size()) {
    const SendResult sent = pair.server.send_some(payload.data() + offset,
                                                  payload.size() - offset);
    ASSERT_FALSE(sent.error);
    offset += sent.bytes;
    if (sent.would_block) {
      ++stalls;
      ASSERT_LT(offset, payload.size())
          << "would_block reported after the full payload was accepted";
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  reader.join();
  EXPECT_GT(stalls, 0u) << "payload never stalled; buffers too big for the "
                           "partial-write path to be exercised";
  ASSERT_EQ(received.size(), payload.size());
  EXPECT_EQ(received, payload) << "bytes reordered or lost across stalls";
}

/// send_some on a closed peer reports error, not would_block.
TEST(ServiceSocketIo, SendSomeReportsHardErrorOnClosedPeer) {
  Pair pair = Pair::make();
  pair.server.set_nonblocking(true);
  pair.client.close();
  const std::string bytes(64 * 1024, 'x');
  // First sends may be absorbed until the RST lands; bounded retries.
  bool saw_error = false;
  for (int i = 0; i < 100 && !saw_error; ++i) {
    const SendResult sent = pair.server.send_some(bytes.data(), bytes.size());
    saw_error = sent.error;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(saw_error);
}

// --- EINTR survival ---------------------------------------------------------

std::atomic<int> g_signals_seen{0};

void count_signal(int) { g_signals_seen.fetch_add(1); }

/// Install a no-SA_RESTART handler so every signal interrupts syscalls with
/// EINTR — the raw condition the retry loops must absorb.
struct InterruptingSignal {
  struct sigaction old {};
  InterruptingSignal() {
    struct sigaction action {};
    action.sa_handler = count_signal;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;  // deliberately NOT SA_RESTART
    sigaction(SIGUSR1, &action, &old);
  }
  ~InterruptingSignal() { sigaction(SIGUSR1, &old, nullptr); }
};

/// Pepper a blocked recv_some and a bulk send_all with signals: both must
/// complete as if uninterrupted.
TEST(ServiceSocketIo, SendAllAndRecvSomeSurviveEintr) {
  InterruptingSignal guard;
  Pair pair = Pair::make();
  pair.server.set_timeouts(5000, 5000);
  pair.client.set_timeouts(5000, 5000);

  const std::string payload(1 << 20, 'e');
  std::atomic<bool> done{false};
  std::atomic<bool> published{false};
  pthread_t victim = pthread_self();

  std::thread io([&] {
    // This thread does the I/O; the main thread signals it.
    victim = pthread_self();
    published.store(true);
    std::string received;
    char buffer[8 * 1024];
    while (received.size() < payload.size()) {
      const RecvResult got = pair.client.recv_some(buffer, sizeof buffer);
      ASSERT_FALSE(got.error) << "recv_some surfaced EINTR as an error";
      if (got.closed) break;
      received.append(buffer, got.bytes);
    }
    EXPECT_EQ(received.size(), payload.size());
    done.store(true);
  });
  // Let the io thread publish its pthread id and block in recv.
  while (!published.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  std::thread pepper([&] {
    while (!done.load()) {
      pthread_kill(victim, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  // Trickle the payload so the receiver repeatedly re-enters recv (and
  // each re-entry is a fresh EINTR target).
  std::size_t offset = 0;
  while (offset < payload.size()) {
    const std::size_t chunk =
        std::min<std::size_t>(32 * 1024, payload.size() - offset);
    ASSERT_TRUE(pair.server.send_all(payload.data() + offset, chunk))
        << "send_all failed under signal pepper at offset " << offset;
    offset += chunk;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  io.join();
  pepper.join();
  EXPECT_GT(g_signals_seen.load(), 0) << "no signal ever landed; the EINTR "
                                         "path was not exercised";
}

/// accept(timeout) peppered with signals must still accept a connection
/// that arrives within the timeout (the EINTR-retry poll keeps waiting
/// with the remaining time instead of bailing).
TEST(ServiceSocketIo, AcceptSurvivesEintrDuringWait) {
  InterruptingSignal guard;
  auto listener = TcpListener::listen("127.0.0.1", 0);
  ASSERT_TRUE(listener.has_value());

  std::atomic<bool> done{false};
  pthread_t victim = pthread_self();
  std::atomic<bool> victim_ready{false};
  std::optional<TcpSocket> accepted;
  std::thread acceptor([&] {
    victim = pthread_self();
    victim_ready.store(true);
    accepted = listener->accept(3000);
    done.store(true);
  });
  while (!victim_ready.load()) std::this_thread::sleep_for(
      std::chrono::milliseconds(1));

  std::thread pepper([&] {
    while (!done.load()) {
      pthread_kill(victim, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  // Connect late — after plenty of signals already interrupted the poll.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto client = tcp_connect("127.0.0.1", listener->port(), 1000);
  EXPECT_TRUE(client.has_value());
  acceptor.join();
  pepper.join();
  EXPECT_TRUE(accepted.has_value())
      << "accept() turned EINTR into a spurious timeout";
}

// --- non-blocking accept ----------------------------------------------------

TEST(ServiceSocketIo, AcceptNowNeverBlocks) {
  auto listener = TcpListener::listen("127.0.0.1", 0);
  ASSERT_TRUE(listener.has_value());
  listener->set_nonblocking(true);

  // Empty queue: immediate nullopt.
  const auto before = std::chrono::steady_clock::now();
  EXPECT_FALSE(listener->accept_now().has_value());
  EXPECT_LT(std::chrono::steady_clock::now() - before,
            std::chrono::milliseconds(100));

  // Queued connection: immediate success, then empty again.
  auto client = tcp_connect("127.0.0.1", listener->port(), 1000);
  ASSERT_TRUE(client.has_value());
  std::optional<TcpSocket> got;
  for (int i = 0; i < 100 && !got; ++i) {
    got = listener->accept_now();
    if (!got) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(got.has_value());
  EXPECT_FALSE(listener->accept_now().has_value());
}

}  // namespace
}  // namespace dcs::service
