// perfbench load — closed-loop NDJSON client for `deeppool serve --unix`.
//
// --connections C threads (C <= nproc) share one stream: each connection
// claims the next line, sends it, and sends nothing more until the last
// byte of its reply has arrived, like an orchestrator waiting on each
// answer. Lines are claimed in stream order and the stream is cycled if a
// run outlasts it.
//
//   --socket PATH --stream FILE --out FILE   required
//   --seconds S          measured window, after --warmup-seconds W
//   --round R            past the deadline, stop only at a line index that
//                        is a multiple of R (whole stream rounds; default 1)
//   --sample i,j,...     save those requests' replies as DIR/reply_<i>.json
//   --sample-dir DIR
//   --check-jobs 1       keep every reply; after the window read each one's
//                        payload.result.fleet.jobs_completed
//   --models-rtt N       after the window, N {"op":"models"} round trips on
//                        a fresh connection (the per-request floor)
//
// The result file holds one row per request: line index, connection, send,
// first-byte and last-byte times (seconds from the start), reply bytes,
// whether the reply was ok, whether it was sent during warm-up, and the
// jobs_completed read back (-1 when not checked).
#include <sys/socket.h>
#include <sys/types.h>

#include <cerrno>
#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "io/socket.h"
#include "util/json.h"

namespace perfbench {
namespace {

struct Record {
  std::int64_t index = 0;
  int conn = 0;
  double send_s = 0, first_s = 0, last_s = 0;
  std::int64_t bytes = 0;
  bool ok = false;
  bool warm = false;
  std::int64_t jobs_completed = -1;
};

/// One client connection: sends a line, reads one reply line back.
class Client {
 public:
  explicit Client(const std::string& socket)
      : conn_(deeppool::io::Connection::connect_unix(socket)),
        buffer_(1 << 20) {}

  /// Sends `line` (newline-terminated) and reads the reply into `reply`
  /// (newline stripped). Returns the first- and last-byte times.
  void round_trip(const std::string& line, std::string& reply,
                  Clock::time_point& first, Clock::time_point& last) {
    std::size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n = ::send(conn_.fd(), line.data() + sent,
                               line.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send failed");
      sent += static_cast<std::size_t>(n);
    }
    reply.clear();
    bool got_first = false;
    for (;;) {
      const ssize_t n = ::recv(conn_.fd(), buffer_.data(), buffer_.size(), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("server closed the connection");
      if (!got_first) {
        first = Clock::now();
        got_first = true;
      }
      const char* begin = buffer_.data();
      const char* end = begin + n;
      const char* newline =
          static_cast<const char*>(std::memchr(begin, '\n', end - begin));
      if (newline != nullptr) {
        last = Clock::now();
        // One request in flight per connection, so nothing follows the
        // newline.
        reply.append(begin, newline);
        return;
      }
      reply.append(begin, end);
    }
  }

 private:
  deeppool::io::Connection conn_;
  std::vector<char> buffer_;
};

bool reply_ok(const std::string& reply) {
  // Envelopes dump with sorted keys: an error envelope starts with "error".
  return reply.rfind("{\"ok\":true", 0) == 0;
}

std::int64_t jobs_completed(const std::string& reply) {
  const deeppool::Json envelope = deeppool::Json::parse(reply);
  return envelope.at("payload").at("result").at("fleet").at("jobs_completed")
      .as_int();
}

}  // namespace

int run_load(const Args& args) {
  const std::string socket = args.str("socket");
  const std::vector<std::string> lines = read_lines(args.str("stream"));
  const int connections = static_cast<int>(args.num("connections", 1));
  const double seconds = args.num("seconds", 10);
  const double warmup_s = args.num("warmup-seconds", 0);
  const std::int64_t round =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(args.num("round", 1)));
  const bool check_jobs = args.num("check-jobs", 0) != 0;
  const int models_rtt = static_cast<int>(args.num("models-rtt", 0));
  const std::vector<std::int64_t> sample_list = args.ints("sample");
  const std::set<std::int64_t> samples(sample_list.begin(), sample_list.end());
  const std::string sample_dir =
      samples.empty() ? "" : args.str("sample-dir");
  if (connections < 1 ||
      connections > static_cast<int>(std::thread::hardware_concurrency())) {
    throw std::invalid_argument("--connections must be in [1, nproc]");
  }

  std::vector<Client> clients;
  clients.reserve(static_cast<std::size_t>(connections));
  for (int c = 0; c < connections; ++c) clients.emplace_back(socket);

  const Clock::time_point t0 = Clock::now();
  const Clock::time_point warm_end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(warmup_s));
  const Clock::time_point deadline =
      warm_end + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));

  std::mutex mu;  // guards next, the shared outputs and error
  std::int64_t next = 0;
  std::vector<Record> records;
  std::vector<std::string> kept;  // check_jobs: every reply, by record
  std::string error;

  const auto connection_loop = [&](int c) {
    try {
      std::string reply;
      std::string line;
      for (;;) {
        std::int64_t index = 0;
        {
          std::lock_guard<std::mutex> lk(mu);
          if (!error.empty()) return;
          if (Clock::now() >= deadline && next % round == 0) return;
          index = next++;
        }
        line = lines[static_cast<std::size_t>(index) % lines.size()];
        line.push_back('\n');
        Record r;
        r.index = index;
        r.conn = c;
        const Clock::time_point send = Clock::now();
        Clock::time_point first, last;
        clients[static_cast<std::size_t>(c)].round_trip(line, reply, first,
                                                        last);
        r.send_s = seconds_between(t0, send);
        r.first_s = seconds_between(t0, first);
        r.last_s = seconds_between(t0, last);
        r.bytes = static_cast<std::int64_t>(reply.size()) + 1;
        r.ok = reply_ok(reply);
        r.warm = send < warm_end;
        if (samples.count(index) != 0) {
          write_file(sample_dir + "/reply_" + std::to_string(index) + ".json",
                     reply);
        }
        std::lock_guard<std::mutex> lk(mu);
        records.push_back(r);
        if (check_jobs) kept.push_back(reply);
      }
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lk(mu);
      error = e.what();
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back(connection_loop, c);
  }
  for (std::thread& t : threads) t.join();
  if (!error.empty()) throw std::runtime_error(error);

  // Reading the fleet tallies parses ~29 MB per reply, so it runs after
  // the window instead of between requests.
  for (std::size_t i = 0; i < kept.size(); ++i) {
    records[i].jobs_completed = records[i].ok ? jobs_completed(kept[i]) : -1;
    std::string().swap(kept[i]);
  }

  std::vector<double> rtt;
  if (models_rtt > 0) {
    Client client(socket);
    std::string reply;
    const std::string line = "{\"op\":\"models\"}\n";
    for (int i = 0; i < models_rtt; ++i) {
      const Clock::time_point send = Clock::now();
      Clock::time_point first, last;
      client.round_trip(line, reply, first, last);
      if (!reply_ok(reply)) throw std::runtime_error("models request failed");
      rtt.push_back(seconds_between(send, last));
    }
  }

  std::string out = "{\"window_start_s\":" + num(warmup_s) + ",\"records\":[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    if (i > 0) out += ',';
    out += "[" + std::to_string(r.index) + "," + std::to_string(r.conn) + "," +
           num(r.send_s) + "," + num(r.first_s) + "," + num(r.last_s) + "," +
           std::to_string(r.bytes) + "," + (r.ok ? "1" : "0") + "," +
           (r.warm ? "1" : "0") + "," + std::to_string(r.jobs_completed) +
           "]";
  }
  out += "],\"models_rtt_s\":[";
  for (std::size_t i = 0; i < rtt.size(); ++i) {
    if (i > 0) out += ',';
    out += num(rtt[i]);
  }
  out += "]}\n";
  write_file(args.str("out"), out);
  return 0;
}

}  // namespace perfbench
