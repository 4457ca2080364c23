// The 14 designs of the `paper_flows` benchmark workload, for tests that
// sweep all of them: D1–D5, the six DSP kernels and the example .dp
// designs (DPMERGE_EXAMPLE_DESIGNS names their directory).

#pragma once

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dpmerge/designs/kernels.h"
#include "dpmerge/designs/testcases.h"
#include "dpmerge/dfg/graph.h"
#include "dpmerge/frontend/parser.h"

namespace dpmerge::test_support {

struct Design {
  std::string name;
  dfg::Graph graph;
};

/// D1–D5, the six DSP kernels and the example .dp designs, in that order.
inline std::vector<Design> paper_designs() {
  std::vector<Design> out;
  for (auto& tc : designs::all_testcases()) {
    out.push_back({tc.name, std::move(tc.graph)});
  }
  for (auto& k : designs::dsp_kernels()) {
    out.push_back({k.name, std::move(k.graph)});
  }
  std::vector<std::filesystem::path> files;
  for (const auto& e :
       std::filesystem::directory_iterator(DPMERGE_EXAMPLE_DESIGNS)) {
    if (e.path().extension() == ".dp") files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    std::ifstream in(path);
    std::stringstream src;
    src << in.rdbuf();
    out.push_back(
        {path.filename().string(), frontend::compile(src.str()).graph});
  }
  return out;
}

}  // namespace dpmerge::test_support
