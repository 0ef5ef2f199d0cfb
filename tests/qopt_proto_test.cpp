// qopt_proto's own test suite: the protocol-manifest parser, the wire-header
// struct/variant extractor, each conformance rule firing on a fixture tree
// with a known defect and staying silent on the clean one, justified
// suppressions, the delete-one-rule sweep proving every rule load-bearing,
// and the committed docs/PROTOCOL.toml matching the real tree. Fixture
// sources live in a `*_fixtures` directory so the tree-wide scans of the
// other analyzers never see them.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qopt_proto/proto.hpp"

namespace {

using qopt::proto::Finding;
using qopt::proto::Manifest;
using qopt::proto::Options;
using qopt::proto::WireHeader;

/// The standard fixture manifest: one component consuming both messages.
/// `wire` and `node` select which fixture header/component files to scan.
std::string manifest_text(const std::string& wire, const std::string& node) {
  return "[wire]\n"
         "header = \"" + wire + ".hpp\"\n"
         "variant = \"Message\"\n"
         "alternatives = [\"PingMsg\", \"PongMsg\"]\n"
         "[components.node]\n"
         "path = \"" + node + "\"\n"
         "dispatch = \"on_message\"\n"
         "[messages.SpanContext]\n"
         "fields = [\"trace_id\"]\n"
         "[messages.PingMsg]\n"
         "from = \"node\"\n"
         "to = \"node\"\n"
         "handler = \"handle_ping\"\n"
         "fields = [\"seq\", \"epno\", \"span\", \"version\"]\n"
         "versioned = true\n"
         "span = true\n"
         "epoch = \"epno\"\n"
         "at_least_once = true\n"
         "dedup = \"seen_\"\n"
         "[messages.PongMsg]\n"
         "from = \"node\"\n"
         "to = \"node\"\n"
         "handler = \"handle_pong\"\n"
         "fields = [\"seq\"]\n";
}

Manifest fixture_manifest(const std::string& wire, const std::string& node) {
  Manifest m =
      qopt::proto::parse_manifest("fixture.toml", manifest_text(wire, node));
  EXPECT_TRUE(m.errors.empty());
  return m;
}

std::vector<Finding> analyze(const std::string& wire, const std::string& node,
                             const Options& options = {}) {
  return qopt::proto::analyze_tree(QOPT_PROTO_FIXTURE_DIR,
                                   fixture_manifest(wire, node), options);
}

std::map<std::string, int> count_by_rule(const std::vector<Finding>& fs) {
  std::map<std::string, int> counts;
  for (const Finding& f : fs) ++counts[f.rule];
  return counts;
}

bool has_rule(const std::vector<Finding>& fs, const std::string& rule) {
  return std::any_of(fs.begin(), fs.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

std::string describe(const std::vector<Finding>& fs) {
  std::string out;
  for (const Finding& f : fs) out += qopt::proto::format_finding(f) + "\n";
  return out;
}

// ------------------------------------------------------------- manifest

TEST(QoptProtoManifest, ParsesWireComponentsAndMessages) {
  const Manifest m = fixture_manifest("wire_clean", "node_clean");
  EXPECT_EQ(m.wire.header, "wire_clean.hpp");
  EXPECT_EQ(m.wire.variant, "Message");
  ASSERT_EQ(m.wire.alternatives.size(), 2u);
  EXPECT_EQ(m.wire.alternatives[0], "PingMsg");
  ASSERT_EQ(m.components.size(), 1u);
  EXPECT_EQ(m.components[0].name, "node");
  EXPECT_EQ(m.components[0].dispatch, "on_message");
  ASSERT_EQ(m.messages.size(), 3u);  // SpanContext helper + the two routed
  const auto& ping = m.messages[1];
  EXPECT_EQ(ping.name, "PingMsg");
  EXPECT_EQ(ping.handler, "handle_ping");
  ASSERT_EQ(ping.fields.size(), 4u);
  EXPECT_EQ(ping.fields[3], "version");
  EXPECT_TRUE(ping.versioned);
  EXPECT_TRUE(ping.span);
  EXPECT_TRUE(ping.at_least_once);
  EXPECT_EQ(ping.epoch, "epno");
  EXPECT_EQ(ping.dedup, "seen_");
  const auto& pong = m.messages[2];
  EXPECT_FALSE(pong.versioned);
  EXPECT_FALSE(pong.at_least_once);
  EXPECT_TRUE(pong.epoch.empty());
}

TEST(QoptProtoManifest, RejectsMalformedInput) {
  const auto errors_of = [](const std::string& text) {
    return qopt::proto::parse_manifest("t.toml", text).errors;
  };
  // Unknown section / unknown key / non-boolean flag.
  EXPECT_FALSE(errors_of("[quorums]\n").empty());
  EXPECT_FALSE(errors_of("[wire]\nheader = \"w.hpp\"\nvariant = \"M\"\n"
                         "bogus = \"x\"\n")
                   .empty());
  EXPECT_FALSE(errors_of("[wire]\nheader = \"w.hpp\"\nvariant = \"M\"\n"
                         "[messages.X]\nfields = [\"a\"]\nversioned = 7\n")
                   .empty());
  // `to` without `handler`, unknown routing target, missing fields.
  EXPECT_FALSE(errors_of("[wire]\nheader = \"w.hpp\"\nvariant = \"M\"\n"
                         "[messages.X]\nto = \"node\"\nfields = [\"a\"]\n")
                   .empty());
  EXPECT_FALSE(errors_of("[wire]\nheader = \"w.hpp\"\nvariant = \"M\"\n"
                         "[messages.X]\nto = \"ghost\"\n"
                         "handler = \"h\"\nfields = [\"a\"]\n")
                   .empty());
  EXPECT_FALSE(errors_of("[wire]\nheader = \"w.hpp\"\nvariant = \"M\"\n"
                         "[messages.X]\n")
                   .empty());
  // Duplicates and structural breakage.
  EXPECT_FALSE(errors_of("[wire]\nheader = \"w.hpp\"\nvariant = \"M\"\n"
                         "[messages.X]\nfields = [\"a\"]\n"
                         "[messages.X]\nfields = [\"a\"]\n")
                   .empty());
  EXPECT_FALSE(errors_of("[wire]\nalternatives = [\"A\",\n\"B\"\n").empty());
  EXPECT_FALSE(errors_of("[components.]\n").empty());
}

// ----------------------------------------------------------- wire parse

TEST(QoptProtoWire, ParsesStructsFieldsAndVariantOrder) {
  const std::string src =
      "struct SpanContext { unsigned long trace_id = 0; };\n"
      "struct PingMsg {\n"
      "  unsigned long seq = 0;\n"
      "  Timestamp ts{};\n"                      // brace-init member
      "  std::vector<Item> items;\n"             // template member
      "  static constexpr int kKind = 1;\n"      // skipped: static
      "  using Self = PingMsg;\n"                // skipped: using
      "  double ratio() const { return 0.0; }\n" // skipped: function
      "  unsigned version = 1;\n"
      "};\n"
      "using Message = std::variant<ns::PingMsg, SpanContext>;\n";
  const WireHeader h = qopt::proto::parse_wire_header(src, "Message");
  ASSERT_EQ(h.structs.size(), 2u);
  EXPECT_EQ(h.structs[0].name, "SpanContext");
  ASSERT_EQ(h.structs[0].fields.size(), 1u);
  EXPECT_EQ(h.structs[0].fields[0], "trace_id");
  const auto& ping = h.structs[1];
  EXPECT_EQ(ping.name, "PingMsg");
  ASSERT_EQ(ping.fields.size(), 4u) << describe({});
  EXPECT_EQ(ping.fields[0], "seq");
  EXPECT_EQ(ping.fields[1], "ts");
  EXPECT_EQ(ping.fields[2], "items");
  EXPECT_EQ(ping.fields[3], "version");
  // Qualifiers are dropped from variant alternatives; order is preserved.
  ASSERT_EQ(h.alternatives.size(), 2u);
  EXPECT_EQ(h.alternatives[0], "PingMsg");
  EXPECT_EQ(h.alternatives[1], "SpanContext");
  EXPECT_GT(h.variant_line, 0u);
}

// ---------------------------------------------------------------- rules

TEST(QoptProtoRules, CleanTreeIsSilent) {
  const auto findings = analyze("wire_clean", "node_clean");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(QoptProtoRules, ReorderedFieldsFailAppendOnly) {
  const auto findings = analyze("wire_reorder", "node_clean");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "append-only-evolution");
  EXPECT_EQ(findings[0].file, "wire_reorder.hpp");
}

TEST(QoptProtoRules, RemovedFieldFailsAppendOnly) {
  const auto findings = analyze("wire_removed", "node_clean");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "append-only-evolution");
  EXPECT_NE(findings[0].message.find("cannot be removed"),
            std::string::npos);
}

TEST(QoptProtoRules, UnrecordedAppendedFieldFailsAppendOnly) {
  const auto findings = analyze("wire_extra", "node_clean");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "append-only-evolution");
  EXPECT_NE(findings[0].message.find("unrecorded appended"),
            std::string::npos);
}

TEST(QoptProtoRules, DeletedStructIsReportedAgainstTheManifest) {
  const auto findings = analyze("wire_missing_struct", "node_clean");
  // The struct vanished, the variant lost its alternative, and the message
  // is now routed without being deliverable.
  const auto counts = count_by_rule(findings);
  EXPECT_EQ(counts.at("append-only-evolution"), 2) << describe(findings);
  EXPECT_EQ(counts.at("handler-exhaustive"), 1) << describe(findings);
}

TEST(QoptProtoRules, UnrecordedStructFailsAppendOnly) {
  const auto findings = analyze("wire_stray", "node_clean");
  // The stray struct itself, plus its absence from the routed-variant map.
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "append-only-evolution");
  EXPECT_NE(findings[0].message.find("StrayMsg"), std::string::npos);
}

TEST(QoptProtoRules, VariantTagReorderFailsAppendOnly) {
  const auto findings = analyze("wire_variant_drift", "node_clean");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "append-only-evolution");
  EXPECT_NE(findings[0].message.find("tag order"), std::string::npos);
}

TEST(QoptProtoRules, FieldAppendedAfterVersionFails) {
  const auto findings = analyze("wire_version_tail", "node_clean");
  const auto counts = count_by_rule(findings);
  // Both the unrecorded append and the version-no-longer-last violation.
  EXPECT_EQ(counts.at("append-only-evolution"), 2) << describe(findings);
  EXPECT_EQ(counts.size(), 1u) << describe(findings);
}

TEST(QoptProtoRules, MissingEpochComparisonFailsEpochGuard) {
  const auto findings = analyze("wire_clean", "node_noguard");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "epoch-guard");
  EXPECT_EQ(findings[0].file, "node_noguard.cpp");
}

TEST(QoptProtoRules, MissingDedupConsultFailsDedupBeforeApply) {
  const auto findings = analyze("wire_clean", "node_nodedup");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "dedup-before-apply");
}

TEST(QoptProtoRules, AtLeastOnceWithoutDeclaredDedupIsAFinding) {
  // Same clean tree, but the manifest forgets the dedup key.
  std::string text = manifest_text("wire_clean", "node_clean");
  const std::size_t pos = text.find("dedup = \"seen_\"\n");
  ASSERT_NE(pos, std::string::npos);
  text.erase(pos, std::string("dedup = \"seen_\"\n").size());
  Manifest m = qopt::proto::parse_manifest("fixture.toml", text);
  ASSERT_TRUE(m.errors.empty()) << describe(m.errors);
  const auto findings =
      qopt::proto::analyze_tree(QOPT_PROTO_FIXTURE_DIR, m);
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "dedup-before-apply");
  EXPECT_NE(findings[0].message.find("declares no"), std::string::npos);
}

TEST(QoptProtoRules, DroppedSpanFailsSpanPropagation) {
  const auto findings = analyze("wire_clean", "node_nospan");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "span-propagation");
  EXPECT_EQ(findings[0].file, "node_nospan.cpp");
}

TEST(QoptProtoRules, SpanCarryingMessageNeedsASpanField) {
  // wire_nospan_field's PingMsg has fields seq/epno/version only.
  std::string text = manifest_text("wire_nospan_field", "node_clean");
  const std::size_t pos =
      text.find("fields = [\"seq\", \"epno\", \"span\", \"version\"]");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string("fields = [\"seq\", \"epno\", \"span\", "
                                "\"version\"]")
                        .size(),
               "fields = [\"seq\", \"epno\", \"version\"]");
  Manifest m = qopt::proto::parse_manifest("fixture.toml", text);
  ASSERT_TRUE(m.errors.empty()) << describe(m.errors);
  const auto findings =
      qopt::proto::analyze_tree(QOPT_PROTO_FIXTURE_DIR, m);
  EXPECT_TRUE(has_rule(findings, "span-propagation")) << describe(findings);
  for (const Finding& f : findings) {
    if (f.rule == "span-propagation") {
      EXPECT_EQ(f.file, "wire_nospan_field.hpp");
      EXPECT_NE(f.message.find("no `span` field"), std::string::npos);
    }
  }
}

TEST(QoptProtoRules, MissingVersionComparisonFailsAppendOnly) {
  const auto findings = analyze("wire_clean", "node_noversion");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "append-only-evolution");
  EXPECT_NE(findings[0].message.find("future version"), std::string::npos);
}

TEST(QoptProtoRules, UnroutedAlternativeFailsHandlerExhaustive) {
  const auto findings = analyze("wire_clean", "node_unrouted");
  // The dispatch neither mentions PongMsg nor calls handle_pong.
  const auto counts = count_by_rule(findings);
  EXPECT_EQ(counts.at("handler-exhaustive"), 2) << describe(findings);
  EXPECT_EQ(counts.size(), 1u) << describe(findings);
}

TEST(QoptProtoRules, MissingHandlerBodyFailsHandlerExhaustive) {
  const auto findings = analyze("wire_clean", "node_nohandler");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "handler-exhaustive");
  EXPECT_NE(findings[0].message.find("no handler body"), std::string::npos);
}

TEST(QoptProtoRules, DispatchMayNotHandleATypeRoutedElsewhere) {
  // Two components; PongMsg routes to `other`, yet node_clean's dispatch
  // still handles it.
  const std::string text =
      "[wire]\n"
      "header = \"wire_clean.hpp\"\n"
      "variant = \"Message\"\n"
      "alternatives = [\"PingMsg\", \"PongMsg\"]\n"
      "[components.node]\n"
      "path = \"node_clean\"\n"
      "dispatch = \"on_message\"\n"
      "[components.other]\n"
      "path = \"node_other\"\n"
      "dispatch = \"on_message\"\n"
      "[messages.SpanContext]\n"
      "fields = [\"trace_id\"]\n"
      "[messages.PingMsg]\n"
      "from = \"node\"\n"
      "to = \"node\"\n"
      "handler = \"handle_ping\"\n"
      "fields = [\"seq\", \"epno\", \"span\", \"version\"]\n"
      "versioned = true\n"
      "span = true\n"
      "epoch = \"epno\"\n"
      "at_least_once = true\n"
      "dedup = \"seen_\"\n"
      "[messages.PongMsg]\n"
      "from = \"node\"\n"
      "to = \"other\"\n"
      "handler = \"handle_pong\"\n"
      "fields = [\"seq\"]\n";
  Manifest m = qopt::proto::parse_manifest("fixture.toml", text);
  ASSERT_TRUE(m.errors.empty()) << describe(m.errors);
  const auto findings =
      qopt::proto::analyze_tree(QOPT_PROTO_FIXTURE_DIR, m);
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "handler-exhaustive");
  EXPECT_NE(findings[0].message.find("routes it to `other`"),
            std::string::npos);
}

// ---------------------------------------------------------- suppressions

TEST(QoptProtoSuppress, JustifiedAllowSilencesBareAllowDoesNot) {
  const auto findings = analyze("wire_clean", "node_suppress");
  // The justified epoch-guard allow removes that finding entirely; the
  // bare allow suppresses nothing and is itself reported.
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "bare-allow");
  EXPECT_EQ(findings[0].file, "node_suppress.cpp");
}

TEST(QoptProtoSuppress, SuppressionsAreEnumerable) {
  const auto sups = qopt::proto::file_suppressions(
      std::string(QOPT_PROTO_FIXTURE_DIR) + "/node_suppress.cpp");
  ASSERT_EQ(sups.size(), 1u);
  EXPECT_EQ(sups[0].rule, "epoch-guard");
  EXPECT_FALSE(sups[0].justification.empty());
}

// ---------------------------------------------- delete-one-rule negative

TEST(QoptProtoRules, EveryRuleIsLoadBearing) {
  // Disabling any single rule makes its fixture findings vanish while the
  // other scenarios keep firing — proves no rule is dead weight.
  const std::vector<std::pair<std::string, std::string>> scenarios = {
      {"wire_reorder", "node_clean"},    // append-only-evolution
      {"wire_clean", "node_unrouted"},   // handler-exhaustive
      {"wire_clean", "node_noguard"},    // epoch-guard
      {"wire_clean", "node_nodedup"},    // dedup-before-apply
      {"wire_clean", "node_nospan"},     // span-propagation
  };
  for (const std::string& rule : qopt::proto::rule_names()) {
    int baseline_hits = 0;
    for (const auto& [wire, node] : scenarios) {
      const auto all = analyze(wire, node);
      const auto counts = count_by_rule(all);
      const auto it = counts.find(rule);
      const int hits = it == counts.end() ? 0 : it->second;
      baseline_hits += hits;

      Options without;
      without.disabled_rules.insert(rule);
      const auto rest = analyze(wire, node, without);
      EXPECT_EQ(count_by_rule(rest).count(rule), 0u)
          << rule << " still fires when disabled on " << wire << "/" << node;
      EXPECT_EQ(rest.size(), all.size() - static_cast<std::size_t>(hits))
          << "disabling " << rule << " changed other rules on " << wire
          << "/" << node;
    }
    EXPECT_GT(baseline_hits, 0) << "no scenario exercises rule " << rule;
  }
}

// ------------------------------------------------------------------- io

TEST(QoptProtoIo, MissingWireHeaderIsAnIoFinding) {
  Manifest m = qopt::proto::parse_manifest(
      "t.toml", manifest_text("wire_nonexistent", "node_clean"));
  ASSERT_TRUE(m.errors.empty());
  const auto findings =
      qopt::proto::analyze_tree(QOPT_PROTO_FIXTURE_DIR, m);
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "io");
}

TEST(QoptProtoIo, MissingComponentSourcesAreAnIoFinding) {
  Manifest m = qopt::proto::parse_manifest(
      "t.toml", manifest_text("wire_clean", "node_nonexistent"));
  ASSERT_TRUE(m.errors.empty());
  const auto findings =
      qopt::proto::analyze_tree(QOPT_PROTO_FIXTURE_DIR, m);
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "io");
}

// --------------------------------------------------- the real PROTOCOL

TEST(QoptProtoTree, CommittedManifestMatchesTheRealTree) {
  const std::string root = QOPT_SOURCE_ROOT;
  const Manifest m =
      qopt::proto::load_manifest(root + "/docs/PROTOCOL.toml");
  ASSERT_TRUE(m.errors.empty()) << describe(m.errors);
  EXPECT_GE(m.messages.size(), 19u);  // every wire.hpp struct is recorded
  EXPECT_GE(m.components.size(), 6u);
  const auto findings = qopt::proto::analyze_tree(root, m);
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(QoptProtoTree, WireInventoryAndManifestInventoryAgree) {
  const std::string root = QOPT_SOURCE_ROOT;
  const Manifest m =
      qopt::proto::load_manifest(root + "/docs/PROTOCOL.toml");
  ASSERT_TRUE(m.errors.empty()) << describe(m.errors);
  std::string source;
  ASSERT_TRUE(
      qopt::analysis::read_file(root + "/" + m.wire.header, source));
  const WireHeader header = qopt::proto::parse_wire_header(
      qopt::analysis::strip_comments_and_literals(source), m.wire.variant);
  EXPECT_EQ(qopt::proto::dump_wire(header, m.wire.variant),
            qopt::proto::dump_manifest(m));
}

}  // namespace
