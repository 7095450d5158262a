// perfbench — the measuring half of the DeepPool service benchmark.
//
//   perfbench load   closed-loop NDJSON client against `deeppool serve --unix`
//   perfbench verify replays sampled requests on a fresh in-process Service
//                    and compares payloads with the server's replies
//   perfbench trace  in-process traced replay of a stream through each
//                    layer's public calls (the per-layer numbers)
//
// perfbench/run.py drives all three; see perfbench/README.md.
#include <exception>
#include <iostream>
#include <string>

#include "common.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench {load|verify|trace} --flag value ...\n";
    return 2;
  }
  const std::string command = argv[1];
  try {
    const perfbench::Args args(argc, argv, 2);
    if (command == "load") return perfbench::run_load(args);
    if (command == "verify") return perfbench::run_verify(args);
    if (command == "trace") return perfbench::run_trace(args);
    std::cerr << "perfbench: unknown command " << command << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench " << command << ": " << e.what() << "\n";
    return 1;
  }
}
