"""Each autograd-lint rule fires on a minimal bad example (and only there)."""

import pytest

from repro.analysis import lint_source
from repro.analysis.diagnostics import (
    RULES,
    Diagnostic,
    Report,
    apply_suppressions,
    noqa_lines,
)


def rule_ids(source, path="model/code.py"):
    return sorted({d.rule_id for d in lint_source(source, path=path)})


class TestRep101RawDataAccess:
    def test_fires_on_raw_data_read(self):
        src = "mask = tensor.data > 0\n"
        assert rule_ids(src) == ["REP101"]

    def test_silent_on_numpy_accessor(self):
        assert rule_ids("mask = tensor.numpy() > 0\n") == []

    def test_substrate_files_are_exempt(self):
        src = "out = tensor.data + 1\n"
        assert rule_ids(src, path="src/repro/nn/tensor.py") == []
        assert rule_ids(src, path="src/repro/nn/optim.py") == []


class TestRep102InplaceMutation:
    def test_fires_on_data_assignment(self):
        assert "REP102" in rule_ids("p.data = p.data - lr * p.grad\n")

    def test_fires_on_subscript_assignment(self):
        assert "REP102" in rule_ids("p.data[0] = 0.0\n")

    def test_fires_on_augmented_assignment(self):
        assert "REP102" in rule_ids("p.data += update\n")
        assert "REP102" in rule_ids("p.grad *= 0.5\n")

    def test_mutation_not_double_reported_as_read(self):
        diags = lint_source("p.data[0] = 0.0\n", path="m.py")
        assert [d.rule_id for d in diags] == ["REP102"]

    def test_plain_attribute_untouched(self):
        assert rule_ids("p.value = 3\n") == []


class TestRep103UnseededRng:
    @pytest.mark.parametrize("call", [
        "np.random.rand(3)",
        "np.random.randn(2, 2)",
        "np.random.seed(0)",
        "np.random.permutation(10)",
        "numpy.random.choice(xs)",
    ])
    def test_fires_on_legacy_global_rng(self, call):
        assert rule_ids(f"x = {call}\n") == ["REP103"]

    def test_fires_on_unseeded_default_rng(self):
        assert rule_ids("rng = np.random.default_rng()\n") == ["REP103"]

    def test_silent_on_seeded_default_rng(self):
        assert rule_ids("rng = np.random.default_rng(7)\n") == []

    def test_silent_on_generator_methods(self):
        assert rule_ids("x = rng.normal(0.0, 1.0, size=3)\n") == []


class TestRep104Float32:
    def test_fires_on_np_float32_attribute(self):
        assert rule_ids("x = np.zeros(3, dtype=np.float32)\n") == ["REP104"]

    def test_fires_on_astype_string(self):
        assert rule_ids('y = x.astype("float32")\n') == ["REP104"]

    def test_fires_on_dtype_keyword_string(self):
        assert rule_ids('y = np.array(x, dtype="float32")\n') == ["REP104"]

    def test_silent_on_float64(self):
        assert rule_ids("x = np.zeros(3, dtype=np.float64)\n") == []


class TestRep104ServingDtypeBoundary:
    """The float32 serving module is sanctioned; everywhere else still fires."""

    FLOAT32_EVERY_SHAPE = (
        'a = np.float32(0.0)\n'
        'b = x.astype("float32")\n'
        'c = np.array(x, dtype="float32")\n'
    )

    def test_serving_dtype_module_is_exempt(self):
        assert rule_ids(
            self.FLOAT32_EVERY_SHAPE, path="src/repro/core/serving_dtype.py"
        ) == []

    def test_sibling_module_still_fires(self):
        assert rule_ids(
            self.FLOAT32_EVERY_SHAPE, path="src/repro/core/necs.py"
        ) == ["REP104"]

    def test_training_path_still_fires(self):
        assert rule_ids(
            'grad = grad.astype("float32")\n', path="src/repro/nn/optim.py"
        ) == ["REP104"]

    def test_exemption_is_only_rep104(self):
        # The serving-dtype module keeps every other rule.
        src = "x = tensor.data\ny = np.float32(1.0)\n"
        assert rule_ids(src, path="src/repro/core/serving_dtype.py") == ["REP101"]

    def test_substrate_exempt_from_tensor_rules_only(self):
        src = "p.data = vec\nq = np.float32(1.0)\n"
        assert rule_ids(src, path="src/repro/nn/module.py") == ["REP104"]


class TestRep105BareExcept:
    def test_fires_on_bare_except(self):
        src = "try:\n    f()\nexcept:\n    pass\n"
        assert rule_ids(src) == ["REP105"]

    def test_silent_on_typed_except(self):
        src = "try:\n    f()\nexcept ValueError:\n    pass\n"
        assert rule_ids(src) == []


class TestRep106ManualDetach:
    def test_fires_on_tensor_of_numpy(self):
        assert rule_ids("h_const = Tensor(h.numpy())\n") == ["REP106"]
        assert rule_ids("h_const = nn.Tensor(h.numpy())\n") == ["REP106"]

    def test_silent_on_detach(self):
        assert rule_ids("h_const = h.detach()\n") == []

    def test_silent_on_plain_wrap(self):
        assert rule_ids("t = Tensor(array)\n") == []


class TestSuppression:
    def test_noqa_with_code_suppresses(self):
        src = "mask = t.data > 0  # repro: noqa=REP101\n"
        assert rule_ids(src) == []

    def test_noqa_bare_suppresses_everything(self):
        src = "np.random.seed(0)  # repro: noqa\n"
        assert rule_ids(src) == []

    def test_noqa_with_other_code_keeps_finding(self):
        src = "mask = t.data > 0  # repro: noqa=REP103\n"
        assert rule_ids(src) == ["REP101"]

    def test_noqa_lines_parses_multiple_codes(self):
        lines = noqa_lines("x = 1  # repro: noqa=REP101, REP103\n")
        assert lines == {1: frozenset({"REP101", "REP103"})}

    def test_apply_suppressions_respects_line(self):
        diags = [Diagnostic("REP101", "m", path="f.py", line=2)]
        assert apply_suppressions(diags, {1: None}) == diags
        assert apply_suppressions(diags, {2: None}) == []


class TestDiagnosticsCore:
    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic("REP999", "nope")

    def test_severity_defaults_to_rule(self):
        d = Diagnostic("REP102", "boom")
        assert d.severity == "error"

    def test_report_exit_codes(self):
        clean = Report([])
        assert clean.exit_code() == 0
        info_only = Report([Diagnostic("REP106", "m")])
        assert info_only.exit_code(fail_on="warning") == 0
        assert info_only.exit_code(fail_on="info") == 1
        errs = Report([Diagnostic("REP103", "m")])
        assert errs.exit_code() == 1
        assert errs.worst() == "error"

    def test_report_formats(self):
        rep = Report([Diagnostic("REP101", "msg", path="f.py", line=3, col=1)])
        text = rep.format_text()
        assert "f.py:3:1" in text and "REP101" in text
        assert '"rule": "REP101"' in rep.format_json()

    def test_catalogue_ids_are_wellformed(self):
        for rule_id, rule in RULES.items():
            assert rule_id == rule.id
            assert rule_id.startswith("REP")
            assert rule.summary


class TestRunnerInputValidation:
    def test_missing_path_is_an_error_not_clean(self):
        from repro.analysis import run_lint

        with pytest.raises(FileNotFoundError):
            run_lint(["/no/such/dir"])

    def test_unknown_select_rule_rejected(self):
        from repro.analysis import run_lint

        with pytest.raises(ValueError, match="REP999"):
            run_lint(select=["REP999"])

    def test_cli_reports_bad_path_cleanly(self, capsys):
        from repro.cli import main

        # Exit 2 = "the analysis could not run", distinct from findings (1).
        assert main(["lint", "/no/such/dir"]) == 2
        assert "does not exist" in capsys.readouterr().err


class TestRepoIsClean:
    def test_repro_package_lints_clean(self):
        from repro.analysis import run_lint

        report = run_lint()  # defaults to the installed repro package
        assert report.diagnostics == [], report.format_text()

    def test_cli_lint_exit_zero(self, capsys):
        from repro.cli import main

        assert main(["lint"]) == 0
        assert "clean" in capsys.readouterr().out
