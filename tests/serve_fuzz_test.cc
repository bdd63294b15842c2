// Fuzz-style negative tests for the serving line protocol. A live request
// stream must never crash the server: every malformed line — truncated
// fields, non-numeric ids, integer overflow, oversized payloads, embedded
// NULs — has to come back as a descriptive InvalidArgument Status. The CI
// ASan job runs this binary, so any out-of-bounds read in the parser that
// a malformed line can reach fails loudly here.
//
// The Socket* tests below repeat the exercise one layer down, against a
// live epoll TcpServer over loopback: bytes dribbled one at a time, lines
// split mid-token across packets, oversized lines, mid-line disconnects,
// NUL bytes, and a seeded mutation sweep. The server must never crash,
// leak (ASan), or stall — after every hostile exchange a sentinel valid
// query must still come back answered on an aligned pipeline.
#include "serve/protocol.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/missl.h"
#include "nn/serialize.h"
#include "serve/service.h"
#include "serve/tcp_server.h"
#include "utils/rng.h"

namespace missl::serve {
namespace {

// Must reject with InvalidArgument and a non-empty message; must not crash.
void ExpectRejected(const std::string& line) {
  SCOPED_TRACE("line: \"" + line + "\"");
  ParsedQuery q;
  Status s = ParseQueryLine(line, &q);
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(s.message().empty()) << "rejection must say why";
}

// Invariants any accepted line must satisfy — checked after every fuzz
// iteration that happens to parse.
void ExpectWellFormed(const ParsedQuery& q) {
  EXPECT_GE(q.id, 0);
  EXPECT_GE(q.query.k, 1);
  EXPECT_FALSE(q.query.items.empty());
  EXPECT_EQ(q.query.items.size(), q.query.behaviors.size());
  EXPECT_TRUE(q.query.timestamps.empty() ||
              q.query.timestamps.size() == q.query.items.size());
  for (int32_t item : q.query.items) EXPECT_GE(item, 0);
  for (int32_t beh : q.query.behaviors) EXPECT_GE(beh, 0);
  for (int32_t ex : q.query.exclude) EXPECT_GE(ex, 0);
}

TEST(ServeFuzzTest, TruncatedFields) {
  ExpectRejected("");
  ExpectRejected("5");
  ExpectRejected("5\t10");
  ExpectRejected("5\t");
  ExpectRejected("5\t10\t");
  ExpectRejected("\t\t");
  ExpectRejected("5\t10\t1:0\t3\textra");  // too many fields
  ExpectRejected("5\t10\t1:");             // truncated event
  ExpectRejected("5\t10\t:0");
  ExpectRejected("5\t10\t1:0,");           // trailing empty event
  ExpectRejected("5\t10\t1:0:");           // truncated timestamp
}

TEST(ServeFuzzTest, NonNumericIds) {
  ExpectRejected("abc\t10\t1:0");
  ExpectRejected("5x\t10\t1:0");
  ExpectRejected(" 5\t10\t1:0");   // leading space: not a full-consume parse
  ExpectRejected("5\tten\t1:0");
  ExpectRejected("5\t10\tx:0");
  ExpectRejected("5\t10\t1:y");
  ExpectRejected("5\t10\t1:0:zz");
  ExpectRejected("5\t10\t1:0\tfoo");
  ExpectRejected("5\t10\t1.5:0");  // floats are not item ids
  ExpectRejected("5\t10\t1:0:1e3");
}

TEST(ServeFuzzTest, OutOfRangeValues) {
  ExpectRejected("-1\t10\t1:0");                     // negative id
  ExpectRejected("5\t0\t1:0");                       // k < 1
  ExpectRejected("5\t-3\t1:0");                      // negative k
  ExpectRejected("5\t10\t-2:0");                     // negative item
  ExpectRejected("5\t10\t1:-1");                     // negative behavior
  ExpectRejected("5\t10\t1:0\t-4");                  // negative exclude
  ExpectRejected("99999999999999999999\t10\t1:0");   // id overflows int64
  ExpectRejected("5\t4294967296\t1:0");              // k overflows int32
  ExpectRejected("5\t10\t4294967296:0");             // item overflows int32
  ExpectRejected("5\t10\t1:0:99999999999999999999"); // ts overflows int64
}

TEST(ServeFuzzTest, MixedTimestampPresenceRejected) {
  ExpectRejected("5\t10\t1:0:100,2:1");
  ExpectRejected("5\t10\t1:0,2:1:200");
}

TEST(ServeFuzzTest, EmbeddedNulBytes) {
  ExpectRejected(std::string("5\t10\t1:0\0", 9));
  ExpectRejected(std::string("5\00010\t1:0", 9));
  ExpectRejected(std::string("\0", 1));
  // NUL inside a numeric token must not truncate the full-consume check.
  ExpectRejected(std::string("5\t10\t1\0:0", 9));
}

TEST(ServeFuzzTest, OversizedLines) {
  // A huge but well-formed history must parse (bounded only by memory)...
  std::string big = "7\t5\t";
  for (int i = 0; i < 100000; ++i) {
    if (i > 0) big += ',';
    big += std::to_string(i % 1000) + ":" + std::to_string(i % 4);
  }
  ParsedQuery q;
  Status s = ParseQueryLine(big, &q);
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(100000u, q.query.items.size());
  ExpectWellFormed(q);
  // ...while a huge garbage token must be rejected, not crash.
  ExpectRejected(std::string(1 << 20, 'A'));
  ExpectRejected("5\t10\t" + std::string(1 << 20, '9') + ":0");
}

// Seeded mutation fuzzing: random byte edits of a valid line. The parser
// must always return (never crash, hang, or trip ASan), and anything it
// accepts must satisfy the query invariants.
TEST(ServeFuzzTest, SeededMutationSweep) {
  const std::string base = "42\t10\t1:0:100,2:1:200,3:0:300\t7,9";
  Rng rng(20240806);
  // Explicit length: the interesting byte set includes NUL, which would
  // otherwise truncate the literal.
  static const char kBytes[] = "0123456789:,\t.-+ex\n\r #\x00\x01\x7f\xff";
  const std::string bytes(kBytes, sizeof(kBytes) - 1);
  for (int iter = 0; iter < 5000; ++iter) {
    std::string line = base;
    int edits = 1 + static_cast<int>(rng.UniformInt(4));
    for (int e = 0; e < edits; ++e) {
      switch (rng.UniformInt(4)) {
        case 0:  // overwrite a byte
          if (!line.empty()) {
            line[rng.UniformInt(line.size())] =
                bytes[rng.UniformInt(bytes.size())];
          }
          break;
        case 1:  // insert a byte
          line.insert(line.begin() + static_cast<int64_t>(
                                         rng.UniformInt(line.size() + 1)),
                      bytes[rng.UniformInt(bytes.size())]);
          break;
        case 2:  // delete a byte
          if (!line.empty()) {
            line.erase(line.begin() +
                       static_cast<int64_t>(rng.UniformInt(line.size())));
          }
          break;
        default:  // truncate
          line.resize(rng.UniformInt(line.size() + 1));
          break;
      }
    }
    SCOPED_TRACE("iter " + std::to_string(iter));
    ParsedQuery q;
    Status s = ParseQueryLine(line, &q);
    if (s.ok()) {
      ExpectWellFormed(q);
    } else {
      EXPECT_FALSE(s.message().empty());
    }
  }
}

// ---------------------------------------------------------------------------
// Socket-level sweep: the same hostility, delivered through a real TCP
// connection to a live epoll server.

constexpr int32_t kItems = 40;
constexpr int32_t kBehaviors = 3;
constexpr int64_t kMaxLen = 10;

// One server per fixture instance: a tiny frozen model behind a RecoService
// with no batch wait (each request forwards immediately) and a deliberately
// small max_line_bytes so the oversized-line path is cheap to hit.
class SocketFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::MisslConfig cfg;
    cfg.dim = 8;
    cfg.num_interests = 2;
    cfg.seed = 71;
    auto make_model = [&] {
      return std::make_unique<core::MisslModel>(kItems, kBehaviors, kMaxLen,
                                                cfg);
    };
    std::string path = ::testing::TempDir() + "/socket_fuzz.bin";
    ASSERT_TRUE(nn::SaveParameters(*make_model(), path).ok());
    ServeConfig scfg;
    scfg.max_len = kMaxLen;
    scfg.max_batch = 4;
    scfg.max_wait_us = 0;
    Status status;
    service_ = RecoService::Load(make_model(), kItems, kBehaviors, path, scfg,
                                 &status);
    std::remove(path.c_str());
    ASSERT_NE(service_, nullptr) << status.ToString();
    TcpServerConfig tcfg;
    tcfg.max_line_bytes = 1024;
    server_ = TcpServer::Start(service_.get(), tcfg, &status);
    ASSERT_NE(server_, nullptr) << status.ToString();
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
  }

  int Connect() {
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd);
      return -1;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{};
    tv.tv_sec = 30;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    return fd;
  }

  static void SendBytes(int fd, const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      ssize_t w =
          ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      ASSERT_GT(w, 0) << "send: " << std::strerror(errno);
      off += static_cast<size_t>(w);
    }
  }

  static bool ReadLine(int fd, std::string* acc, std::string* line) {
    for (;;) {
      size_t nl = acc->find('\n');
      if (nl != std::string::npos) {
        line->assign(*acc, 0, nl);
        acc->erase(0, nl + 1);
        return true;
      }
      char tmp[4096];
      ssize_t r = ::recv(fd, tmp, sizeof(tmp), 0);
      if (r <= 0) return false;
      acc->append(tmp, static_cast<size_t>(r));
    }
  }

  static int64_t ResponseId(const std::string& line) {
    size_t pos = line.find("\"id\":");
    if (pos == std::string::npos) return INT64_MIN;
    return std::strtoll(line.c_str() + pos + 5, nullptr, 10);
  }

  // Round-trips one known-good query and checks the answer is a non-error
  // response echoing `id` — the liveness probe after every hostile exchange.
  void ExpectServerAlive(int fd, std::string* acc, int64_t id) {
    SendBytes(fd, std::to_string(id) + "\t5\t1:0,2:1,3:2\n");
    std::string line;
    ASSERT_TRUE(ReadLine(fd, acc, &line)) << "server did not answer id " << id;
    EXPECT_EQ(ResponseId(line), id);
    EXPECT_EQ(line.find("\"error\""), std::string::npos) << line;
  }

  std::unique_ptr<RecoService> service_;
  std::unique_ptr<TcpServer> server_;
};

TEST_F(SocketFuzzTest, ExtremeTimestampsSaturateRecencyGap) {
  // Valid on the wire: now = INT64_MAX, so the first event's gap overflows
  // int64. It must saturate into the last recency bucket, not wrap (UB).
  ParsedQuery pq;
  ASSERT_TRUE(ParseQueryLine("0\t5\t1:0:-9223372036854775808,"
                             "2:0:9223372036854775807",
                             &pq)
                  .ok());
  data::Batch batch = BuildQueryBatch({pq.query}, kMaxLen, kBehaviors);
  EXPECT_EQ(batch.merged_recency[kMaxLen - 2], data::kNumRecencyBuckets - 1);
  EXPECT_EQ(batch.merged_recency[kMaxLen - 1], 0);
  TopKResult out;
  ASSERT_TRUE(service_->TopK(pq.query, &out).ok());
  EXPECT_EQ(out.items.size(), 5u);
}

TEST_F(SocketFuzzTest, BytesDribbledOneAtATime) {
  int fd = Connect();
  ASSERT_GE(fd, 0);
  std::string acc, line;
  const std::string request = "9\t5\t4:0:10,7:1:20,2:2:30\t7\n";
  // One byte per packet, paced so the epoll thread observes genuinely
  // partial lines rather than one coalesced read.
  for (char c : request) {
    SendBytes(fd, std::string(1, c));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(ReadLine(fd, &acc, &line));
  EXPECT_EQ(ResponseId(line), 9);
  EXPECT_EQ(line.find("\"error\""), std::string::npos) << line;
  ExpectServerAlive(fd, &acc, 1000);
  ::close(fd);
}

TEST_F(SocketFuzzTest, LinesSplitMidTokenAcrossPackets) {
  const std::string request = "3\t6\t1:0:100,2:1:250,3:2:400\t2,3\n";
  int fd = Connect();
  ASSERT_GE(fd, 0);
  std::string acc, line;
  // Every split position, back to back (kernel may coalesce some)...
  for (size_t cut = 1; cut + 1 < request.size(); ++cut) {
    SendBytes(fd, request.substr(0, cut));
    SendBytes(fd, request.substr(cut));
    ASSERT_TRUE(ReadLine(fd, &acc, &line)) << "cut at " << cut;
    EXPECT_EQ(ResponseId(line), 3) << "cut at " << cut;
    EXPECT_EQ(line.find("\"error\""), std::string::npos) << line;
  }
  // ...and a paced subset where the server provably sees the fragments as
  // separate reads, including cuts inside numeric tokens.
  for (size_t cut : {size_t{1}, size_t{4}, request.size() / 2,
                     request.size() - 2}) {
    SendBytes(fd, request.substr(0, cut));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    SendBytes(fd, request.substr(cut));
    ASSERT_TRUE(ReadLine(fd, &acc, &line)) << "paced cut at " << cut;
    EXPECT_EQ(ResponseId(line), 3);
  }
  ExpectServerAlive(fd, &acc, 1001);
  ::close(fd);
}

TEST_F(SocketFuzzTest, OversizedLineAnsweredOnceAndResynced) {
  int fd = Connect();
  ASSERT_GE(fd, 0);
  std::string acc, line;
  // 8 KB with no newline against max_line_bytes = 1024: one error response,
  // everything up to the next newline discarded.
  SendBytes(fd, std::string(8192, '9'));
  ASSERT_TRUE(ReadLine(fd, &acc, &line));
  EXPECT_EQ(ResponseId(line), -1);
  EXPECT_NE(line.find("\"error\""), std::string::npos);
  // More tail bytes of the same monster line must NOT produce more errors;
  // the newline ends discard mode and the next query is answered normally.
  SendBytes(fd, std::string(2048, '8'));
  SendBytes(fd, "\n");
  ExpectServerAlive(fd, &acc, 1002);
  ::close(fd);
}

TEST_F(SocketFuzzTest, MidLineDisconnectsLeaveServerServing) {
  // Peer vanishes mid-line: no response owed, nothing to crash.
  {
    int fd = Connect();
    ASSERT_GE(fd, 0);
    SendBytes(fd, "5\t10\t1:0,2");  // no newline
    ::close(fd);
  }
  // Peer vanishes after a full query but before reading the answer: the
  // in-flight answer is dropped on the floor, server-side only.
  {
    int fd = Connect();
    ASSERT_GE(fd, 0);
    SendBytes(fd, "6\t10\t1:0,2:1\n");
    ::close(fd);
  }
  // Peer sends garbage then slams the connection.
  {
    int fd = Connect();
    ASSERT_GE(fd, 0);
    SendBytes(fd, "\x01\x02garbage");
    ::close(fd);
  }
  // A fresh connection is served normally afterwards, and the dead
  // connections drain out of the server's accounting.
  int fd = Connect();
  ASSERT_GE(fd, 0);
  std::string acc;
  ExpectServerAlive(fd, &acc, 1003);
  ::close(fd);
  for (int i = 0; i < 200 && server_->active_connections() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server_->active_connections(), 0);
}

TEST_F(SocketFuzzTest, NulBytesAnsweredAsErrorNotCrash) {
  int fd = Connect();
  ASSERT_GE(fd, 0);
  std::string acc, line;
  SendBytes(fd, std::string("5\t10\t1:0\0\n", 10));
  ASSERT_TRUE(ReadLine(fd, &acc, &line));
  EXPECT_EQ(ResponseId(line), -1);
  EXPECT_NE(line.find("\"error\""), std::string::npos);
  SendBytes(fd, std::string("\0\0\0\n", 4));
  ASSERT_TRUE(ReadLine(fd, &acc, &line));
  EXPECT_NE(line.find("\"error\""), std::string::npos);
  ExpectServerAlive(fd, &acc, 1004);
  ::close(fd);
}

// Seeded mutation sweep over the wire: random byte edits of a valid request
// line, each followed by a sentinel valid query with a fresh id. Whatever
// the mutation produced (0, 1, or several response lines), the sentinel
// answer must arrive non-error on the same connection — the server never
// crashed, stalled, or lost pipeline alignment.
TEST_F(SocketFuzzTest, SeededMutationSweepKeepsPipelineAligned) {
  const std::string base = "42\t10\t1:0:100,2:1:200,3:0:300\t7,9";
  static const char kBytes[] = "0123456789:,\t.-+ex\n\r #\x00\x01\x7f\xff";
  const std::string bytes(kBytes, sizeof(kBytes) - 1);
  Rng rng(20240809);
  int fd = Connect();
  ASSERT_GE(fd, 0);
  std::string acc, line;
  for (int iter = 0; iter < 300; ++iter) {
    SCOPED_TRACE("iter " + std::to_string(iter));
    std::string mutated = base;
    int edits = 1 + static_cast<int>(rng.UniformInt(4));
    for (int e = 0; e < edits; ++e) {
      switch (rng.UniformInt(4)) {
        case 0:
          if (!mutated.empty()) {
            mutated[rng.UniformInt(mutated.size())] =
                bytes[rng.UniformInt(bytes.size())];
          }
          break;
        case 1:
          mutated.insert(
              mutated.begin() +
                  static_cast<int64_t>(rng.UniformInt(mutated.size() + 1)),
              bytes[rng.UniformInt(bytes.size())]);
          break;
        case 2:
          if (!mutated.empty()) {
            mutated.erase(mutated.begin() + static_cast<int64_t>(
                                                rng.UniformInt(mutated.size())));
          }
          break;
        default:
          mutated.resize(rng.UniformInt(mutated.size() + 1));
          break;
      }
    }
    const int64_t sentinel = 1000000 + iter;
    SendBytes(fd, mutated + "\n" + std::to_string(sentinel) +
                      "\t5\t1:0,2:1,3:2\n");
    // Skip whatever the mutated bytes provoked; the sentinel id must show
    // up within a handful of lines or the pipeline is broken.
    bool found = false;
    for (int reads = 0; reads < 8 && !found; ++reads) {
      ASSERT_TRUE(ReadLine(fd, &acc, &line)) << "connection died";
      if (ResponseId(line) == sentinel) {
        EXPECT_EQ(line.find("\"error\""), std::string::npos) << line;
        found = true;
      }
    }
    ASSERT_TRUE(found) << "sentinel " << sentinel << " never answered";
  }
  ::close(fd);
}

}  // namespace
}  // namespace missl::serve
