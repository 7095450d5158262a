// perfbench verify — the server's sampled replies against a fresh Service.
//
// For each --indices entry, the request line is replayed through
// api::Service::handle on a fresh in-process Service with the server's
// worker count, and its payload must equal the payload of the reply the
// load generator saved. Schedule payloads report their own run's
// plan-cache hits and misses, which differ on a warm server by design, so
// result.fleet.plan_cache_{hits,misses} are masked on both sides.
//
//   --stream FILE --replies DIR --indices i,j,... --jobs N
//
// Prints one line per check and exits 1 on any mismatch.
#include <iostream>

#include "api/request.h"
#include "api/service.h"
#include "common.h"
#include "util/json.h"

namespace perfbench {
namespace {

void mask_cache_counters(deeppool::Json& payload) {
  if (!payload.is_object() || !payload.contains("result")) return;
  deeppool::Json& result = payload["result"];
  if (!result.is_object() || !result.contains("fleet")) return;
  deeppool::Json::Object& fleet = result["fleet"].as_object();
  fleet.erase("plan_cache_hits");
  fleet.erase("plan_cache_misses");
}

}  // namespace

int run_verify(const Args& args) {
  using namespace deeppool;
  const std::vector<std::string> lines = read_lines(args.str("stream"));
  const std::string replies = args.str("replies");
  const int jobs = static_cast<int>(args.num("jobs", 1));
  int mismatches = 0;
  for (const std::int64_t index : args.ints("indices")) {
    const std::string& line =
        lines[static_cast<std::size_t>(index) % lines.size()];
    Json served = Json::parse(
        read_file(replies + "/reply_" + std::to_string(index) + ".json"));
    bool match = served.at("ok").as_bool();
    if (match) {
      api::Service fresh(api::ServiceOptions{jobs, nullptr, 0});
      Json expected =
          fresh.handle(api::request_from_json(Json::parse(line))).payload;
      Json& actual = served["payload"];
      mask_cache_counters(expected);
      mask_cache_counters(actual);
      match = expected.dump() == actual.dump();
    }
    std::cout << "verify request " << index << ": "
              << (match ? "payload matches" : "MISMATCH") << "\n";
    if (!match) ++mismatches;
  }
  return mismatches == 0 ? 0 : 1;
}

}  // namespace perfbench
