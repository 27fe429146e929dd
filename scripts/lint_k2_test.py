#!/usr/bin/env python3
"""Unit tests for scripts/lint_k2.py.

Each case materializes a miniature repo tree in a temp directory (fixtures
are inline strings, so the real build never sees them) and asserts which
rules fire — one passing and one failing fixture per rule, plus the
allowance and comment-stripping edge cases that make the linter trustable.

Run directly (python3 scripts/lint_k2_test.py) or via scripts/ci.sh --lint.
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lint_k2  # noqa: E402


def run_on(tree):
    """tree: {relpath: contents}. Returns the list of findings."""
    with tempfile.TemporaryDirectory() as root:
        for rel, contents in tree.items():
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(contents)
        return lint_k2.run(root)


def rules(findings):
    return sorted({f.rule for f in findings})


class ValidateMiningParamsTest(unittest.TestCase):
    def test_entry_without_validation_fails(self):
        findings = run_on({
            "src/core/m.cc": (
                "Result<std::vector<Convoy>> MineFoo(Store* s) {\n"
                "  return Convoys(s);\n"
                "}\n")})
        self.assertEqual(rules(findings), ["validate-mining-params"])

    def test_entry_with_validation_passes(self):
        findings = run_on({
            "src/core/m.cc": (
                "Result<std::vector<Convoy>> MineFoo(Store* s,\n"
                "                                    const MiningParams& p) {\n"
                "  K2_RETURN_NOT_OK(ValidateMiningParams(p));\n"
                "  K2_RETURN_NOT_OK(s->status());\n"
                "  K2_RETURN_NOT_OK(ValidateTickRange(s->time_range(), p));\n"
                "  return Convoys(s);\n"
                "}\n")})
        self.assertEqual(findings, [])

    def test_entry_without_tick_range_check_fails(self):
        findings = run_on({
            "src/core/m.cc": (
                "Result<std::vector<Convoy>> MineFoo(Store* s,\n"
                "                                    const MiningParams& p) {\n"
                "  K2_RETURN_NOT_OK(ValidateMiningParams(p));\n"
                "  K2_RETURN_NOT_OK(s->status());\n"
                "  return Convoys(s);\n"
                "}\n")})
        self.assertEqual(rules(findings), ["validate-mining-params"])
        self.assertIn("ValidateTickRange(s->time_range()", findings[0].message)

    def test_entry_without_store_check_fails(self):
        findings = run_on({
            "src/core/m.cc": (
                "Result<std::vector<Convoy>> MineFoo(Store* store,\n"
                "                                    const MiningParams& p) {\n"
                "  K2_RETURN_NOT_OK(ValidateMiningParams(p));\n"
                "  // store->status() is not checked here\n"
                "  return Convoys(store);\n"
                "}\n")})
        self.assertEqual(rules(findings), ["validate-mining-params"])
        self.assertIn("store->status()", findings[0].message)

    def test_entry_without_store_needs_no_store_check(self):
        findings = run_on({
            "src/core/m.cc": (
                "Result<std::vector<Convoy>> MineFoo(const Dataset& d,\n"
                "                                    const MiningParams& p) {\n"
                "  K2_RETURN_NOT_OK(ValidateMiningParams(p));\n"
                "  return Convoys(d);\n"
                "}\n")})
        self.assertEqual(findings, [])

    def test_declaration_is_not_an_entry(self):
        findings = run_on({
            "src/core/m.cc":
                "Status MineFoo(Store* s, const MiningParams& p);\n"})
        self.assertEqual(findings, [])

    def test_allowance_covers_the_definition(self):
        findings = run_on({
            "src/core/m.cc": (
                "// k2-lint: allow(validate-mining-params): validated by\n"
                "// the public wrapper one frame up.\n"
                "Status MineFooInner(Store* s) {\n"
                "  return Status::OK();\n"
                "}\n")})
        self.assertEqual(findings, [])


class AtomicSharedPtrTest(unittest.TestCase):
    def test_atomic_shared_ptr_fails(self):
        findings = run_on({
            "src/serve/c.h":
                "std::atomic<std::shared_ptr<const Snapshot>> snap_;\n"})
        self.assertEqual(rules(findings), ["no-atomic-shared-ptr"])

    def test_mention_in_comment_passes(self):
        findings = run_on({
            "src/serve/c.h":
                "// std::atomic<std::shared_ptr> would spinlock here.\n"
                "SnapshotCell snapshot_;\n"})
        self.assertEqual(findings, [])


class LsmRawIoTest(unittest.TestCase):
    def test_fopen_in_lsm_fails(self):
        findings = run_on({
            "src/storage/lsm/w.cc":
                'void F() { std::fopen("x", "wb"); }\n'})
        self.assertEqual(rules(findings), ["lsm-io-through-env"])

    def test_fopen_outside_lsm_passes(self):
        findings = run_on({
            "src/common/env.cc": 'void F() { std::fopen("x", "wb"); }\n'})
        self.assertEqual(findings, [])

    def test_allowed_fopen_passes(self):
        findings = run_on({
            "src/storage/lsm/r.cc": (
                "// k2-lint: allow(lsm-io-through-env): read path, outside\n"
                "// the write-path fault-injection seam.\n"
                'void F() { std::fopen("x", "rb"); }\n')})
        self.assertEqual(findings, [])


class BenchHardwareKeyTest(unittest.TestCase):
    def test_unjustified_hardware_concurrency_fails(self):
        findings = run_on({
            "bench/b.cc": (
                "int main() {\n"
                "  Row(std::thread::hardware_concurrency());\n"
                "}\n")})
        self.assertEqual(rules(findings),
                         ["bench-key-hardware-independent"])

    def test_src_usage_is_out_of_scope(self):
        findings = run_on({
            "src/common/tp.cc":
                "unsigned n = std::thread::hardware_concurrency();\n"})
        self.assertEqual(findings, [])


class NolintFormatTest(unittest.TestCase):
    def test_bare_nolint_fails(self):
        findings = run_on({
            "src/a.cc": "int x = y;  // NOLINT\n"})
        self.assertEqual(rules(findings), ["nolint-format"])

    def test_check_without_reason_fails(self):
        findings = run_on({
            "src/a.cc": "int x = y;  // NOLINT(bugprone-foo)\n"})
        self.assertEqual(rules(findings), ["nolint-format"])

    def test_check_with_reason_passes(self):
        findings = run_on({
            "src/a.cc":
                "int x = y;  // NOLINT(bugprone-foo): y is checked above\n"})
        self.assertEqual(findings, [])

    def test_malformed_allowance_fails(self):
        findings = run_on({
            "src/a.cc": "// k2-lint: allow(some-rule)\nint x;\n"})
        self.assertEqual(rules(findings), ["nolint-format"])


class NoAnalysisInvariantTest(unittest.TestCase):
    def test_naked_no_analysis_fails(self):
        findings = run_on({
            "src/s.cc":
                "int Load() K2_NO_THREAD_SAFETY_ANALYSIS { return v_; }\n"})
        self.assertEqual(rules(findings), ["no-naked-no-analysis"])

    def test_prose_invariant_passes(self):
        findings = run_on({
            "src/s.cc": (
                "// Invariant (analysis off): v_ is written only before\n"
                "// the reader thread starts; this read cannot race.\n"
                "int Load() K2_NO_THREAD_SAFETY_ANALYSIS { return v_; }\n")})
        self.assertEqual(findings, [])


class ProtocolCoverageTest(unittest.TestCase):
    HEADER = (
        "enum class MessageType : uint8_t {\n"
        "  kHello = 1,\n"
        "  kError = 2,\n"
        "};\n"
        "enum class WireError : uint8_t {\n"
        "  kBadCrc = 1,\n"
        "};\n")

    def test_missing_handler_fails(self):
        findings = run_on({
            "src/serve/net/protocol.h": self.HEADER,
            "src/serve/net/protocol.cc": (
                "case MessageType::kHello: return;\n"
                "case WireError::kBadCrc: return;\n")})
        self.assertEqual(rules(findings), ["protocol-enum-coverage"])
        self.assertIn("MessageType::kError", findings[0].message)

    def test_full_coverage_passes(self):
        findings = run_on({
            "src/serve/net/protocol.h": self.HEADER,
            "src/serve/net/protocol.cc": (
                "case MessageType::kHello: case MessageType::kError:\n"
                "case WireError::kBadCrc: return;\n")})
        self.assertEqual(findings, [])


class CommentStrippingTest(unittest.TestCase):
    def test_string_literal_slashes_are_not_comments(self):
        code = 'const char* url = "http://x";  // NOLINT\n'
        stripped = lint_k2.strip_comments(code)
        self.assertIn('http://x', stripped)
        self.assertNotIn("NOLINT", stripped)

    def test_block_comment_preserves_line_numbers(self):
        code = "a\n/* b\nc */\nd\n"
        self.assertEqual(lint_k2.strip_comments(code).count("\n"),
                         code.count("\n"))


class SelfCheckTest(unittest.TestCase):
    def test_the_real_tree_is_clean(self):
        root = os.path.dirname(
            os.path.dirname(os.path.abspath(lint_k2.__file__)))
        findings = lint_k2.run(root)
        self.assertEqual([str(f) for f in findings], [])


if __name__ == "__main__":
    unittest.main()
