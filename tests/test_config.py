import dataclasses

import numpy as np
import pytest

from consensuslab import dynamics, scenario
from consensuslab.cli import main
from consensuslab.config import _SCHEMA, emit_scenario, parse_scenario
from consensuslab.exceptions import ConfigError
from consensuslab.presets import PRESETS, preset
from consensuslab.scenario import Scenario, StageSpec, validate_scenario
from consensuslab.sim import FunctionView, poisson_delay_bank, sample_poisson_delays

MINIMAL = """
[cascade]
name = demo
seed = 4
order = 2
controller = compositional

[graph]
kind = path
n = 3

[stage.1]
kind = linear_static

[stage.2]
kind = linear_static

[init]
preset = uniform_pm1

[integrator]
dt = 0.001
t_end = 1.0
record_every = 10
"""


class TestParsing:
    def test_minimal_config(self):
        sc = parse_scenario(MINIMAL)
        assert sc.name == "demo"
        assert sc.graph_n == 3
        assert sc.order == 2
        assert sc.stages[0].kind == "linear_static"

    def test_comments_and_blank_lines_ignored(self):
        sc = parse_scenario("# leading comment\n" + MINIMAL + "\n# trailing\n")
        assert sc.name == "demo"

    def test_unknown_key_rejected_with_line(self):
        text = MINIMAL.replace("n = 3", "n = 3\nfrobnicate = 1")
        with pytest.raises(ConfigError) as err:
            parse_scenario(text)
        assert "frobnicate" in str(err.value)
        assert err.value.line is not None

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_scenario(MINIMAL + "\n[plotting]\ncolor = red\n")

    def test_duplicate_key_rejected(self):
        text = MINIMAL.replace("seed = 4", "seed = 4\nseed = 5")
        with pytest.raises(ConfigError):
            parse_scenario(text)

    def test_missing_cascade_section(self):
        with pytest.raises(ConfigError):
            parse_scenario("[graph]\nkind = path\nn = 3\n")

    def test_missing_stage_section(self):
        text = MINIMAL.replace("[stage.2]\nkind = linear_static\n", "")
        with pytest.raises(ConfigError):
            parse_scenario(text)

    def test_bad_number_rejected(self):
        text = MINIMAL.replace("dt = 0.001", "dt = tiny")
        with pytest.raises(ConfigError):
            parse_scenario(text)

    def test_bad_list_rejected(self):
        text = MINIMAL.replace("preset = uniform_pm1", "x0 = [1.0, oops]")
        with pytest.raises(ConfigError):
            parse_scenario(text)

    def test_parse_checks_syntax_alone(self):
        """A scenario parses whatever its rules say; they are checked on the
        scenario that will run, after any override."""
        sc = parse_scenario(MINIMAL.replace("record_every = 10", "record_every = 7"))
        assert sc.record_every == 7
        with pytest.raises(ConfigError, match="record_every must divide"):
            validate_scenario(sc)


class TestValidation:
    def test_delayed_inner_stage_rejected(self):
        text = MINIMAL.replace(
            "[stage.1]\nkind = linear_static",
            "[stage.1]\nkind = delayed_relative\ndelay = constant:0.5",
        )
        with pytest.raises(ConfigError) as err:
            validate_scenario(parse_scenario(text))
        assert "outermost" in str(err.value)

    def test_negative_dt_rejected(self):
        text = MINIMAL.replace("dt = 0.001", "dt = -0.001")
        with pytest.raises(ConfigError):
            validate_scenario(parse_scenario(text))

    def test_conventional_with_delayed_stage_rejected(self):
        text = MINIMAL.replace("controller = compositional",
                               "controller = conventional")
        text = text.replace(
            "[stage.2]\nkind = linear_static",
            "[stage.2]\nkind = delayed_absolute_velocity\n"
            "gains = [1.0, 1.0, 1.0]\nref = constant:10.0\ndelay = poisson:1.0",
        )
        with pytest.raises(ConfigError):
            validate_scenario(parse_scenario(text))

    def test_wrong_vector_length_rejected(self):
        text = MINIMAL.replace("preset = uniform_pm1", "x0 = [1.0, 2.0]")
        with pytest.raises(ConfigError):
            validate_scenario(parse_scenario(text))

    def test_time_varying_needs_gates(self):
        text = MINIMAL.replace("[stage.1]\nkind = linear_static",
                               "[stage.1]\nkind = linear_time_varying")
        with pytest.raises(ConfigError):
            validate_scenario(parse_scenario(text))

    def test_unknown_controller_rejected(self):
        bad = dataclasses.replace(preset("serial_lti"), controller="magic")
        with pytest.raises(ConfigError):
            validate_scenario(bad)

    def test_record_every_must_divide_steps(self):
        text = MINIMAL.replace("record_every = 10", "record_every = 7")
        with pytest.raises(ConfigError):
            validate_scenario(parse_scenario(text))

    @pytest.mark.parametrize("name, controller", [
        ("serial_lti", "conventional-ideal"), ("serial_lti", "conventional-delayed"),
        ("gps_fig3", "conventional"), ("gps_fig3", "naive-serial"),
        ("saturated_regime", "conventional"), ("counterexample_appD", "conventional-delayed"),
    ])
    def test_baseline_on_another_stage_layout_rejected(self, name, controller):
        with pytest.raises(ConfigError):
            validate_scenario(dataclasses.replace(preset(name), controller=controller))

    @pytest.mark.parametrize("controller", ["conventional-ideal", "conventional-delayed"])
    def test_baseline_rejected_without_building_a_field(self, controller, monkeypatch):
        def no_field(*args):
            raise AssertionError("validation built a block operator")

        monkeypatch.setattr(dynamics, "_block_operator", no_field)
        sc = dataclasses.replace(preset("gps_fig3"), controller=controller)
        validate_scenario(sc)
        outer = dataclasses.replace(sc.stages[1], gains=(1.0,) * 9)
        with pytest.raises(ConfigError, match="agents"):
            validate_scenario(dataclasses.replace(sc, stages=(sc.stages[0], outer)))


def with_stage(sc, k, **changes):
    stages = list(sc.stages)
    stages[k] = dataclasses.replace(stages[k], **changes)
    return dataclasses.replace(sc, stages=tuple(stages))


# Scenarios whose config echo would not parse back to them: a bool prints as
# True or False, the parser splits lines and strips values, and a missing name
# reads back as the default. graph_n=True and a numeric spec raised raw errors.
UNECHOABLE = {
    "seed": lambda: dataclasses.replace(preset("serial_lti"), seed=True),
    "order": lambda: dataclasses.replace(preset("counterexample_appD"), order=True),
    "graph_n": lambda: dataclasses.replace(preset("serial_lti"), graph_n=True),
    "dt": lambda: dataclasses.replace(preset("serial_lti"), dt=True),
    "t_end": lambda: dataclasses.replace(preset("serial_lti"), t_end=True),
    "tolerance": lambda: dataclasses.replace(preset("serial_lti"), tolerance=True),
    "tail_fraction": lambda: dataclasses.replace(preset("serial_lti"), tail_fraction=True),
    "disturbance_sup": lambda: dataclasses.replace(
        preset("serial_lti"), disturbance_kind="random", disturbance_sup=True),
    "scale": lambda: with_stage(preset("serial_lti"), 1, scale=True),
    "line_break": lambda: dataclasses.replace(preset("serial_lti"), name="a\nb"),
    "padded": lambda: dataclasses.replace(preset("serial_lti"), name=" padded "),
    "no_name": lambda: dataclasses.replace(preset("serial_lti"), name=None),
    "padded_spec": lambda: with_stage(preset("counterexample_appD"), 0, delay="ramp:5.0 "),
    "spec_not_text": lambda: with_stage(preset("gps_fig3"), 1, ref=10.0),
}


def listed(key, **changes):
    """serial_lti with ``changes``, the vector field ``key`` a list, not a tuple."""
    sc = dataclasses.replace(preset("serial_lti"), **changes)
    return dataclasses.replace(sc, **{key: list(getattr(sc, key))})


# Valid scenarios but for one vector field that is a list or an array: the echo
# reads it back as a tuple, and a list in a StageSpec is unhashable.
LISTED = {
    "x0": lambda: listed("x0", init_preset=None, x0=(0.0,) * 10),
    "x0_array": lambda: dataclasses.replace(preset("serial_lti"), x0=np.zeros(10)),
    "xdot0": lambda: listed("xdot0", xdot0=(0.0,) * 10),
    "xi0": lambda: listed("xi0", init_preset=None, xi0=(0.0,) * 20),
    "d_ref": lambda: listed("d_ref", d_ref=(0.0,) * 10),
    "disturbance_vector": lambda: listed("disturbance_vector", disturbance_kind="constant",
                                         disturbance_vector=(0.1,) * 10),
    "graph_edges": lambda: listed("graph_edges", graph_kind="edges",
                                  graph_edges=((2, 1, 1.0),)),
    "edge_entry": lambda: dataclasses.replace(preset("serial_lti"), graph_kind="edges",
                                              graph_edges=([2, 1, 1.0],)),
    "omega": lambda: with_stage(preset("timevarying_fig1"), 0,
                                omega=list(preset("timevarying_fig1").stages[0].omega)),
    "phi": lambda: with_stage(preset("timevarying_fig1"), 1,
                              phi=list(preset("timevarying_fig1").stages[1].phi)),
    "gains": lambda: with_stage(preset("gps_fig3"), 1, gains=[1.0] * 10),
}


class TestEcho:
    @pytest.mark.parametrize("case", sorted(UNECHOABLE))
    def test_unechoable_scenario_rejected(self, case):
        with pytest.raises(ConfigError):
            validate_scenario(UNECHOABLE[case]())

    @pytest.mark.parametrize("case", sorted(LISTED))
    def test_list_valued_vector_rejected(self, case):
        with pytest.raises(ConfigError, match="must be a tuple"):
            validate_scenario(LISTED[case]())

    def test_numpy_scalars_echo_back(self):
        sc = dataclasses.replace(preset("serial_lti"), dt=np.float64(1e-3), init_preset=None,
                                 x0=tuple(np.arange(10)))
        validate_scenario(sc)
        assert emit_scenario(sc).count("dt = 0.001") == 1
        assert parse_scenario(emit_scenario(sc)) == sc

    @pytest.mark.parametrize("name", ["two words", "a'b", "x = [1]", ""])
    def test_one_line_names_echo_back(self, name):
        sc = dataclasses.replace(preset("serial_lti"), name=name)
        validate_scenario(sc)
        assert parse_scenario(emit_scenario(sc)) == sc


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_round_trip(self, name):
        sc = preset(name)
        assert parse_scenario(emit_scenario(sc)) == sc

    def test_emit_is_canonical(self):
        sc = parse_scenario(MINIMAL)
        once = emit_scenario(sc)
        assert emit_scenario(parse_scenario(once)) == once

    def test_round_trip_with_all_fields(self):
        sc = Scenario(
            name="full", seed=9, order=2, controller="compositional",
            graph_kind="edges", graph_n=3, graph_edges=((2, 1, 1.0), (3, 2, 0.25)),
            stages=(
                StageSpec(kind="saturated", scale=2.0),
                StageSpec(kind="delayed_relative", delay="constant:0.125"),
            ),
            x0=(0.5, -1.0, 2.0), xdot0=(0.0, 0.0, 0.0),
            d_ref=(0.0, -10.0, -20.0),
            disturbance_kind="random", disturbance_sup=0.05,
            dt=0.002, t_end=4.0, record_every=20,
            tolerance=1e-4, tail_fraction=0.25,
        )
        validate_scenario(sc)
        assert parse_scenario(emit_scenario(sc)) == sc

    def test_schema_states_every_field(self):
        stated = {field for section in _SCHEMA.values() for field, _ in section.values()}
        fields = set(Scenario.__dataclass_fields__) - {"stages"}
        assert stated == fields | set(StageSpec.__dataclass_fields__)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            preset("does_not_exist")


class TestDelayBounds:
    """Each delayed system takes its bound from the delays it is built with."""

    def test_per_edge_poisson_streams(self, tmp_path):
        edges = "edges = [[2, 1, 1.0], [3, 2, 1.0], [1, 3, 0.5]]"
        text = MINIMAL.replace("kind = path", f"kind = edges\n{edges}")
        text = text.replace("[stage.2]\nkind = linear_static",
                            "[stage.2]\nkind = delayed_relative\ndelay = poisson:0.5")
        text = text.replace("dt = 0.001\nt_end = 1.0", "dt = 0.01\nt_end = 10.0")
        sc = parse_scenario(text)
        _, cascade = scenario._build(sc)
        outer = cascade.stages[-1]
        assert outer.edges == [(0, 2), (1, 0), (2, 1)]
        want = {(i, j): sample_poisson_delays(0.5, (4, i, j), 10.0) for i, j in outer.edges}
        built = scenario._build_delays(("poisson", 0.5), sc, outer.edges)
        assert built.keys() == want.keys()
        for e, delay in want.items():
            assert np.array_equal(built[e].arrivals, delay.arrivals), e
        assert cascade.tau_max == max(d.tau_max for d in want.values())
        # Each edge j -> i reads z_j at its own stream's last arrival.
        hist = FunctionView(lambda s: np.array([s, 10.0 * s, 100.0 * s]))
        z = np.array([1.0, 2.0, 3.0])
        for t in (0.3, 2.0, 7.5):
            out = outer.weights.sum(axis=1) * z
            for (i, j), delay in want.items():
                last = delay.arrivals[delay.arrivals <= t].max(initial=0.0)
                out[i] -= outer.weights[i, j] * hist.fn(last)[j]
            assert np.array_equal(outer.evaluate(z, t, hist), out), t
        cfg = tmp_path / "edges.cfg"
        cfg.write_text(text)
        assert main(["--scenario", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0

    def test_preset_bounds(self):
        sc = dataclasses.replace(preset("gps_fig3"), controller="conventional-delayed")
        _, law = scenario._build(sc)
        bank = poisson_delay_bank(1.0, sc.seed, sc.t_end, sc.graph_n)
        assert law.tau_max == max(d.tau_max for d in bank) == 6.793724666099802
        _, cascade = scenario._build(preset("counterexample_appD"))
        assert cascade.tau_max == 5.0
