// qopt_perf's own test suite: the hot-path manifest parser, hot-region
// scoping (whole-file and function-scoped), each rule firing on a fixture
// with a known violation and staying silent on clean code, justified
// suppressions, and the ratchet-baseline machinery. Fixtures use a
// `.fixture` extension (and live in a `*_fixtures` directory) so the
// tree-wide scans never see them.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qopt_perf/perf.hpp"

namespace {

using qopt::perf::Baseline;
using qopt::perf::Finding;
using qopt::perf::Manifest;
using qopt::perf::Options;

// Exercises both region shapes: a whole-file region (everything under
// `hot/` is hot) and a function-scoped one (only the named bodies under
// `funcs/` are).
constexpr const char* kTestManifest = R"toml(
[regions.hot_file]
path = "hot/"

[regions.hot_funcs]
path = "funcs/"
functions = ["on_event", "sweep"]

[messages]
types = ["PingMsg"]
)toml";

Manifest test_manifest() {
  Manifest m = qopt::perf::parse_manifest("test.toml", kTestManifest);
  EXPECT_TRUE(m.errors.empty());
  return m;
}

std::string fixture_path(const std::string& name) {
  return std::string(QOPT_PERF_FIXTURE_DIR) + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<Finding> analyze_fixture(const std::string& name,
                                     const std::string& rel_path,
                                     const Options& options = {}) {
  return qopt::perf::analyze_source(rel_path, slurp(fixture_path(name)),
                                    /*header_source=*/{}, test_manifest(),
                                    options);
}

std::map<std::string, int> count_by_rule(const std::vector<Finding>& fs) {
  std::map<std::string, int> counts;
  for (const Finding& f : fs) ++counts[f.rule];
  return counts;
}

bool has_finding(const std::vector<Finding>& fs, const std::string& rule,
                 std::size_t line) {
  return std::any_of(fs.begin(), fs.end(), [&](const Finding& f) {
    return f.rule == rule && f.line == line;
  });
}

std::string describe(const std::vector<Finding>& fs) {
  std::string out;
  for (const Finding& f : fs) out += qopt::perf::format_finding(f) + "\n";
  return out;
}

// ------------------------------------------------------------- manifest

TEST(QoptPerfManifest, ParsesRegionsFunctionsAndMessages) {
  const Manifest m = test_manifest();
  ASSERT_EQ(m.regions.size(), 2u);
  EXPECT_EQ(m.regions[0].name, "hot_file");
  EXPECT_EQ(m.regions[0].path, "hot/");
  EXPECT_TRUE(m.regions[0].functions.empty());
  EXPECT_EQ(m.regions[1].name, "hot_funcs");
  ASSERT_EQ(m.regions[1].functions.size(), 2u);
  EXPECT_EQ(m.regions[1].functions[0], "on_event");
  ASSERT_EQ(m.message_types.size(), 1u);
  EXPECT_EQ(m.message_types[0], "PingMsg");
}

TEST(QoptPerfManifest, RejectsMalformedInput) {
  const Manifest no_path =
      qopt::perf::parse_manifest("t.toml", "[regions.broken]\n");
  ASSERT_EQ(no_path.errors.size(), 1u);
  EXPECT_EQ(no_path.errors[0].rule, "manifest");

  const Manifest bad_key = qopt::perf::parse_manifest(
      "t.toml", "[messages]\nbogus = [\"X\"]\n");
  ASSERT_EQ(bad_key.errors.size(), 1u);

  const Manifest bad_section =
      qopt::perf::parse_manifest("t.toml", "[quorums]\n");
  ASSERT_EQ(bad_section.errors.size(), 1u);

  const Manifest open_array = qopt::perf::parse_manifest(
      "t.toml", "[messages]\ntypes = [\"A\",\n\"B\"\n");
  ASSERT_FALSE(open_array.errors.empty());
}

TEST(QoptPerfManifest, RepoHotPathManifestIsValidAndPointsAtRealFiles) {
  namespace fs = std::filesystem;
  const std::string root = QOPT_SOURCE_ROOT;
  const Manifest m =
      qopt::perf::load_manifest(root + "/docs/HOT_PATHS.toml");
  EXPECT_TRUE(m.errors.empty()) << describe(m.errors);
  EXPECT_FALSE(m.regions.empty());
  EXPECT_FALSE(m.message_types.empty());
  for (const auto& region : m.regions) {
    const std::string base = root + "/" + region.path;
    const bool exists = fs::exists(base) || fs::exists(base + ".hpp") ||
                        fs::exists(base + ".cpp") || fs::exists(base + ".h");
    EXPECT_TRUE(exists) << "region `" << region.name
                        << "` names a missing path: " << region.path;
  }
}

// ------------------------------------------------------- region scoping

TEST(QoptPerfRegions, WholeFileRegionMarksEveryLineHot) {
  const Manifest m = test_manifest();
  const std::string stripped = "int a;\nint b;\nint c;\n";
  const auto hot = qopt::perf::hot_lines("hot/x.cpp", stripped, m);
  for (std::size_t l = 1; l <= 3; ++l) EXPECT_TRUE(hot[l]) << l;
  const auto cold = qopt::perf::hot_lines("cold/x.cpp", stripped, m);
  for (std::size_t l = 1; l <= 3; ++l) EXPECT_FALSE(cold[l]) << l;
}

TEST(QoptPerfRegions, ColdPathSilencesEveryHotGatedRule) {
  const auto findings = analyze_fixture("heap_alloc.fixture",
                                        "cold/heap_alloc.cpp");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

// ---------------------------------------------------------------- rules

TEST(QoptPerfRules, HeapAllocFixtureFlagsEveryAllocation) {
  const auto findings =
      analyze_fixture("heap_alloc.fixture", "hot/heap_alloc.cpp");
  const auto counts = count_by_rule(findings);
  // new, make_unique, make_shared, std::function, std::to_string, and the
  // string concatenation — one per line.
  EXPECT_EQ(counts.at("heap-alloc-hot"), 6) << describe(findings);
  EXPECT_EQ(counts.size(), 1u) << describe(findings);
  for (std::size_t line = 8; line <= 13; ++line) {
    EXPECT_TRUE(has_finding(findings, "heap-alloc-hot", line)) << line;
  }
}

TEST(QoptPerfRules, CleanFixtureIsSilent) {
  const auto findings = analyze_fixture("clean.fixture", "hot/clean.cpp");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(QoptPerfRules, MapChurnFixtureFlagsChurnAndLocalConstruction) {
  const auto findings =
      analyze_fixture("map_churn.fixture", "hot/map_churn.cpp");
  const auto counts = count_by_rule(findings);
  // operator[], insert, erase, the local std::set construction, and the
  // churn on that local.
  EXPECT_EQ(counts.at("map-churn-hot"), 5) << describe(findings);
  EXPECT_EQ(counts.size(), 1u) << describe(findings);
  EXPECT_TRUE(has_finding(findings, "map-churn-hot", 11));  // stats_[key]
  EXPECT_TRUE(has_finding(findings, "map-churn-hot", 14));  // local set
}

TEST(QoptPerfRules, MapChurnTreatsUnorderedContainersAsNodeContainers) {
  const auto findings =
      analyze_fixture("unordered_churn.fixture", "hot/unordered_churn.cpp");
  const auto counts = count_by_rule(findings);
  // operator[], try_emplace, insert, erase, and the local unordered_multiset;
  // the find() lookup is not churn.
  EXPECT_EQ(counts.at("map-churn-hot"), 5) << describe(findings);
  EXPECT_EQ(counts.size(), 1u) << describe(findings);
  for (std::size_t line : {11u, 12u, 13u, 14u, 15u}) {
    EXPECT_TRUE(has_finding(findings, "map-churn-hot", line)) << line;
  }
  EXPECT_FALSE(has_finding(findings, "map-churn-hot", 16));  // find()
}

TEST(QoptPerfRules, MapChurnGoodFixtureIsSilent) {
  const auto findings =
      analyze_fixture("map_churn_good.fixture", "hot/map_churn_good.cpp");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(QoptPerfRules, VectorGrowthOnlyInHotFunctionsWithoutReserve) {
  const auto findings =
      analyze_fixture("vector_growth.fixture", "funcs/vector_growth.cpp");
  // on_event's push_back fires; cold_helper is outside the named hot
  // functions and sweep reserves first.
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "vector-growth-hot");
  EXPECT_EQ(findings[0].line, 9u);
}

TEST(QoptPerfRules, ByvalMessageFiresTreeWideOutsideHotRegions) {
  const auto findings =
      analyze_fixture("byval_message.fixture", "lib/wire.hpp");
  const auto counts = count_by_rule(findings);
  EXPECT_EQ(counts.at("byval-message"), 2) << describe(findings);
  EXPECT_EQ(counts.size(), 1u) << describe(findings);
  EXPECT_TRUE(has_finding(findings, "byval-message", 7));   // PingMsg msg
  EXPECT_TRUE(has_finding(findings, "byval-message", 11));  // PingMsg copy
}

TEST(QoptPerfRules, RegexAndThrowFlaggedInHotRegion) {
  const auto findings =
      analyze_fixture("regex_throw.fixture", "hot/regex_throw.cpp");
  const auto counts = count_by_rule(findings);
  EXPECT_EQ(counts.at("regex-hot"), 2) << describe(findings);
  EXPECT_EQ(counts.at("throw-hot"), 1) << describe(findings);
  EXPECT_EQ(counts.size(), 2u) << describe(findings);
}

// ---------------------------------------------------------- suppressions

TEST(QoptPerfSuppress, JustifiedAllowSilencesBareAllowDoesNot) {
  const auto findings =
      analyze_fixture("suppress.fixture", "hot/suppress.cpp");
  const auto counts = count_by_rule(findings);
  // hot_setup's justified allow removes its violation entirely; hot_bare's
  // bare allow is itself a finding and suppresses nothing.
  EXPECT_EQ(counts.at("bare-allow"), 1) << describe(findings);
  EXPECT_EQ(counts.at("heap-alloc-hot"), 1) << describe(findings);
  EXPECT_TRUE(has_finding(findings, "bare-allow", 12));
  EXPECT_TRUE(has_finding(findings, "heap-alloc-hot", 13));
}

TEST(QoptPerfSuppress, AllowForOneRuleDoesNotSuppressAnother) {
  const std::string src =
      "// qopt-perf: allow(throw-hot) wrong rule for this line\n"
      "auto p = std::make_unique<int>(1);\n";
  const auto findings = qopt::perf::analyze_source(
      "hot/x.cpp", src, /*header_source=*/{}, test_manifest());
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "heap-alloc-hot");
}

// ---------------------------------------------- delete-one-rule negative

TEST(QoptPerfRules, EveryRuleIsLoadBearing) {
  // Disabling any single rule makes its fixture findings vanish while the
  // other rules keep firing — proves no rule is dead weight and no finding
  // is double-reported by two rules.
  const std::vector<std::pair<std::string, std::string>> fixture_for = {
      {"heap_alloc.fixture", "hot/heap_alloc.cpp"},
      {"map_churn.fixture", "hot/map_churn.cpp"},
      {"vector_growth.fixture", "funcs/vector_growth.cpp"},
      {"byval_message.fixture", "lib/wire.hpp"},
      {"regex_throw.fixture", "hot/regex_throw.cpp"},
  };
  for (const std::string& rule : qopt::perf::rule_names()) {
    int baseline_hits = 0;
    for (const auto& [fixture, rel] : fixture_for) {
      const auto all = analyze_fixture(fixture, rel);
      const auto counts = count_by_rule(all);
      const auto it = counts.find(rule);
      const int hits = it == counts.end() ? 0 : it->second;
      baseline_hits += hits;

      Options without;
      without.disabled_rules.insert(rule);
      const auto rest = analyze_fixture(fixture, rel, without);
      EXPECT_EQ(count_by_rule(rest).count(rule), 0u)
          << rule << " still fires when disabled in " << fixture;
      EXPECT_EQ(rest.size(), all.size() - static_cast<std::size_t>(hits))
          << "disabling " << rule << " changed other rules in " << fixture;
    }
    EXPECT_GT(baseline_hits, 0) << "no fixture exercises rule " << rule;
  }
}

// -------------------------------------------------------------- ratchet

TEST(QoptPerfRatchet, BaselineParsesCountsAndRejectsBadLines) {
  const Baseline b = qopt::perf::parse_baseline(
      "b.txt",
      "# comment\n"
      "heap-alloc-hot 7\n"
      "map-churn-hot 11\n");
  EXPECT_TRUE(b.errors.empty()) << describe(b.errors);
  EXPECT_EQ(b.counts.at("heap-alloc-hot"), 7);
  EXPECT_EQ(b.counts.at("map-churn-hot"), 11);

  const Baseline junk = qopt::perf::parse_baseline(
      "b.txt", "heap-alloc-hot\nmap-churn-hot many\n");
  EXPECT_EQ(junk.errors.size(), 2u);
}

TEST(QoptPerfRatchet, UnbaselinableRulesMayNotAppearInABaseline) {
  for (const char* rule : {"manifest", "io", "bare-allow", "baseline"}) {
    EXPECT_FALSE(qopt::perf::baselinable(rule)) << rule;
    const Baseline b = qopt::perf::parse_baseline(
        "b.txt", std::string(rule) + " 1\n");
    EXPECT_EQ(b.errors.size(), 1u) << rule;
  }
  EXPECT_TRUE(qopt::perf::baselinable("heap-alloc-hot"));
}

TEST(QoptPerfRatchet, CountAboveBaselineFailsAtOrBelowPasses) {
  Baseline baseline;
  baseline.counts["heap-alloc-hot"] = 3;

  // Up: regression.
  EXPECT_FALSE(
      qopt::perf::ratchet_failures({{"heap-alloc-hot", 4}}, baseline)
          .empty());
  // A rule with no baseline entry counts against an allowance of zero.
  EXPECT_FALSE(
      qopt::perf::ratchet_failures({{"throw-hot", 1}}, baseline).empty());
  // An unbaselinable rule fails even at count 1.
  EXPECT_FALSE(
      qopt::perf::ratchet_failures({{"bare-allow", 1}}, baseline).empty());

  // At: pass, no improvement to report.
  EXPECT_TRUE(
      qopt::perf::ratchet_failures({{"heap-alloc-hot", 3}}, baseline)
          .empty());
  EXPECT_TRUE(
      qopt::perf::ratchet_improvements({{"heap-alloc-hot", 3}}, baseline)
          .empty());

  // Down: pass, and the drop is reported for --update-baseline.
  EXPECT_TRUE(
      qopt::perf::ratchet_failures({{"heap-alloc-hot", 2}}, baseline)
          .empty());
  EXPECT_EQ(
      qopt::perf::ratchet_improvements({{"heap-alloc-hot", 2}}, baseline)
          .size(),
      1u);
}

TEST(QoptPerfRatchet, FormatBaselineRoundTripsAndDropsNoise) {
  const std::map<std::string, int> counts = {{"heap-alloc-hot", 2},
                                             {"map-churn-hot", 0},
                                             {"bare-allow", 3}};
  const std::string text = qopt::perf::format_baseline(counts);
  const Baseline reparsed = qopt::perf::parse_baseline("b.txt", text);
  EXPECT_TRUE(reparsed.errors.empty()) << describe(reparsed.errors);
  // Zero-count and unbaselinable rules are omitted from the file.
  EXPECT_EQ(reparsed.counts.size(), 1u);
  EXPECT_EQ(reparsed.counts.at("heap-alloc-hot"), 2);
}

TEST(QoptPerfRatchet, CommittedBaselineMatchesTheTreeScanShape) {
  const Baseline b = qopt::perf::load_baseline(
      std::string(QOPT_SOURCE_ROOT) + "/tools/qopt_perf/baseline.txt");
  EXPECT_TRUE(b.errors.empty()) << describe(b.errors);
  for (const auto& [rule, count] : b.counts) {
    EXPECT_TRUE(qopt::perf::baselinable(rule)) << rule;
    EXPECT_GT(count, 0) << rule;
  }
}

// ------------------------------------------------------------------- io

TEST(QoptPerfIo, MissingFileIsAnIoFinding) {
  const auto findings = qopt::perf::analyze_file(
      "/nonexistent-root", "nope.cpp", test_manifest());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "io");
}

}  // namespace
