/// \file main.cpp
/// The benchmark program. perfbench/run.py drives it in two roles:
///
///   perfbench gen-corpus|gen-rmat ...      write a workload's inputs
///   perfbench pipeline|kernels|server|dist measure one workload
///
/// A measuring subcommand prints its Result as one JSON line (the last on
/// stdout); progress and check lines go to stderr. Any exception exits 2
/// without a result.

#include <cstdio>
#include <exception>
#include <string>

#include "harness.hpp"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench <gen-corpus|gen-rmat|pipeline|kernels|"
                 "server|dist> [--key value ...]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const perfbench::Args args(argc, argv, 2);
    if (cmd == "gen-corpus") return perfbench::gen_corpus(args);
    if (cmd == "gen-rmat") return perfbench::gen_rmat(args);
    if (cmd == "pipeline") return perfbench::run_pipeline(args);
    if (cmd == "kernels") return perfbench::run_kernels(args);
    if (cmd == "server") return perfbench::run_server_mixed(args);
    if (cmd == "dist") return perfbench::run_dist_bc(args);
    std::fprintf(stderr, "perfbench: unknown subcommand '%s'\n", cmd.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", cmd.c_str(), e.what());
  }
  return 2;
}
