import functools
import json
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import subcover.cli as cli
from subcover.cli import ParseError, RunConfig, ingest, main, render_svg, run, write_curve
from subcover.geometry import Interval, Segment, curve_from_points
from subcover.solver import SolverFailure


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_ingest_basic(tmp_path):
    path = write(tmp_path, "a.txt", "0 0\n1 0\n2 0\n")
    P = ingest(path)
    assert P.n == 3 and P.dim == 2
    assert np.allclose(P.vertex_params, [0, 0.5, 1])


def test_ingest_comments_and_commas(tmp_path):
    path = write(tmp_path, "b.txt", "# header\n0,0\n# mid\n1, 0\n")
    P = ingest(path)
    assert P.n == 2


def test_ingest_collapses_duplicates(tmp_path):
    path = write(tmp_path, "c.txt", "0 0\n0 0\n1 0\n")
    P = ingest(path)
    assert P.n == 2


def test_ingest_errors(tmp_path):
    path = write(tmp_path, "d.txt", "0 0\n1 x\n")
    with pytest.raises(ParseError, match=":2"):
        ingest(path)
    ragged = write(tmp_path, "e.txt", "0 0\n1 0 0\n")
    with pytest.raises(ParseError, match=":2"):
        ingest(ragged)
    empty = write(tmp_path, "f.txt", "# nothing\n")
    with pytest.raises(ParseError):
        ingest(empty)


def test_ingest_names_the_line_of_non_finite_and_colliding_points(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, text in (("nan.txt", "0 0\n1 nan\n"), ("inf.txt", "0 0\n2 0\n-inf 1\n")):
            with pytest.raises(ParseError, match=f"{name}:{text.count(chr(10))}: non-finite"):
                ingest(write(tmp_path, name, text))
        # distinct points whose arclength parameters round to the same value
        colliding = write(tmp_path, "far.txt", "0 0\n1e17 0\n1e17 1\n")
        with pytest.raises(ParseError, match="far.txt:3: .*arclength parameter"):
            ingest(colliding)
        # steps that overflow
        with pytest.raises(ParseError, match="huge.txt:2: .*arclength parameter"):
            ingest(write(tmp_path, "huge.txt", "0 0\n1e308 0\n-1e308 0\n"))


@pytest.mark.parametrize("variant", ["explicit", "implicit", "greedy"])
@pytest.mark.parametrize("text", ["3 4\n", "1 1\n1 1\n1,1\n"])
def test_single_point_input_verifies(tmp_path, capsys, variant, text):
    path = write(tmp_path, "one.txt", text)
    assert main(["--input", path, "--delta", "1.0", "--verify", "--variant", variant]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "PASS" and report["n_vertices"] == 1
    assert report["coverage"] == [[0.0, 1.0]]


_FINITE = ["0", "1", "-2", "0.5", "3", "1e17"]
_FIELDS = st.sampled_from(_FINITE + ["nan", "inf", "-inf"])


@st.composite
def degenerate_files(draw):
    """Point files made of a few repeated points, with the odd non-finite
    field, ragged row, comment or blank line."""
    dim = draw(st.integers(1, 3))
    point = st.lists(st.sampled_from(_FINITE), min_size=dim, max_size=dim)
    pool = draw(st.lists(point, min_size=1, max_size=3))
    lines = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "# comment"])))
        elif kind == 1:
            lines.append(" ".join(draw(st.lists(_FIELDS, min_size=1, max_size=4))))
        else:
            lines.append(", ".join(draw(st.sampled_from(pool))))
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(degenerate_files(), st.sampled_from(["explicit", "implicit", "greedy"]))
def test_degenerate_files_succeed_or_exit_2_with_a_message(tmp_path, capsys, text, variant):
    path = write(tmp_path, "deg.txt", text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["--input", path, "--delta", "1.0", "--verify", "--variant", variant])
    out, err = capsys.readouterr()
    if code == 0:
        assert json.loads(out)["verdict"] == "PASS"
    else:
        assert code == 2 and err.startswith("error: ") and len(err) > len("error: \n"), (code, err)


def test_ingest_write_roundtrip(tmp_path):
    path = write(tmp_path, "g.txt", "0 0\n1 0.25\n2.5 -1\n")
    P = ingest(path)
    out = str(tmp_path / "h.txt")
    write_curve(P, out)
    Q = ingest(out)
    assert np.array_equal(P.vertices, Q.vertices)


def _line_by_line(path):
    """The points as iterating the file line by line reads them."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if line and not line.startswith("#"):
                rows.append([float(x) for x in line.replace(",", " ").split()])
    return np.asarray(rows, dtype=float)


_NUMBER = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.tuples(st.integers(-999, 999), st.integers(-30, 30)).map(lambda t: f"{t[0]}e{t[1]:+d}"),
    st.tuples(st.integers(0, 999), st.integers(0, 99)).map(lambda t: f"+{t[0]}.{t[1]:02d}E-2"),
    st.sampled_from(["-0", "-0.0", ".5", "5.", "1_000"]),
)


@st.composite
def _well_formed_files(draw):
    d = draw(st.integers(1, 3))
    lines = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["point", "point", "point", "comment", "blank"]))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["#", "# x, y", "  # 1 2"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
        else:
            sep = draw(st.sampled_from([" ", ",", ", ", "\t", " , "]))
            pad = draw(st.sampled_from(["", " ", "\t"]))
            lines.append(pad + sep.join(draw(st.lists(_NUMBER, min_size=d, max_size=d))) + pad)
    assume(any(ln.strip() and not ln.strip().startswith("#") for ln in lines))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.filter_too_much])
@given(_well_formed_files())
def test_ingest_fast_path_equals_the_line_path(tmp_path, text):
    path = tmp_path / "w.txt"
    path.write_bytes(text.encode("utf-8"))
    with open(path, "r", encoding="utf-8") as fh:
        lines = [raw.strip() for raw in fh.read().split("\n")]
    linenos = [k for k, line in enumerate(lines, start=1) if line and not line.startswith("#")]
    fields = [lines[k - 1].replace(",", " ").split() for k in linenos]
    fast = cli._fields_array(fields)
    assert fast is not None
    expected = _line_by_line(str(path))
    for pts in (fast, cli._lines_array(str(path), lines, linenos, fields)):
        assert pts.shape == expected.shape
        assert pts.tobytes() == expected.tobytes()
    try:
        P = ingest(str(path))
    except ParseError as exc:  # consecutive points whose parameters collide
        assert "arclength parameter" in str(exc)
        return
    keep = np.concatenate([[True], np.any(expected[1:] != expected[:-1], axis=1)])
    assert P.vertices.tobytes() == expected[keep].tobytes()


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 0\n1 x\n", "2: non-numeric field in '1 x'"),
        ("0 0\r\n1 0 0\r\n", "2: expected 2 columns, got 3"),
        ("1 1\n2 x 3\n", "2: non-numeric field in '2 x 3'"),
        ("0,0\n,\n1 1\n", "2: expected 2 columns, got 0"),
        ("1e999 0\n", "1: non-finite field in '1e999 0'"),
        ("0 0\r1 nan\r", "2: non-finite field in '1 nan'"),
        # iterating a file splits lines only at newlines, not at \x1c
        ("5 5\n0 0\x1c1 1\n", "2: expected 2 columns, got 4"),
        ("# header\n\n  \n", " no points found"),
    ],
)
def test_malformed_files_raise_the_line_paths_messages(tmp_path, text, message):
    path = tmp_path / "m.txt"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ParseError) as exc:
        ingest(str(path))
    assert str(exc.value) == f"{path}:{message}"


def test_write_curve_formats_as_each_numpy_float_did(tmp_path):
    rng = np.random.default_rng(7)
    special = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e-310, 1e300, -1e300, 0.1, 1 / 3]
    for d in (1, 2, 3):
        for n in (1, 2, 17):
            V = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-300, 300, size=(n, d))
            V.flat[: len(special)] = special[: V.size]
            P = curve_from_points(V)
            out = tmp_path / "v.txt"
            write_curve(P, str(out))
            old = "".join(" ".join(f"{x:.17g}" for x in v) + "\n" for v in P.vertices)
            assert out.read_bytes() == old.encode("utf-8")


def test_run_segment_instance(tmp_path):
    path = write(tmp_path, "seg.txt", "\n".join(f"{x} 0" for x in np.linspace(0, 10, 12)))
    cfg = RunConfig(input_path=path, delta=1.0, verify=True, seed=5)
    report = run(cfg)
    assert report["verdict"] == "PASS"
    assert report["schema"] == 2
    assert report["k_found"] >= 2 and report["centers"]


def test_run_deterministic_reports(tmp_path):
    path = write(tmp_path, "seg2.txt", "\n".join(f"{x} {0.05 * ((-1) ** i)}" for i, x in enumerate(np.linspace(0, 8, 15))))
    r1 = run(RunConfig(input_path=path, delta=0.8, verify=True, seed=9))
    r2 = run(RunConfig(input_path=path, delta=0.8, verify=True, seed=9))
    for timing in ("wall_time_s", "stage_s"):
        r1.pop(timing)
        r2.pop(timing)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_run_greedy_and_implicit_variants(tmp_path):
    path = write(tmp_path, "seg3.txt", "\n".join(f"{x} 0" for x in np.linspace(0, 6, 8)))
    g = run(RunConfig(input_path=path, delta=1.0, variant="greedy", verify=True))
    assert g["verdict"] == "PASS"
    im = run(RunConfig(input_path=path, delta=1.0, variant="implicit", verify=True, seed=2))
    assert im["verdict"] == "PASS"
    assert im["guarantee_radius"] == pytest.approx(12.0)


@pytest.mark.parametrize("variant", ["explicit", "implicit", "greedy"])
def test_report_counts_returned_and_sampled_centers(tmp_path, variant):
    path = write(tmp_path, "tri.txt", "0 0\n6 0\n3 5\n0 0\n6 0\n")
    cfg = RunConfig(input_path=path, delta=0.5, variant=variant, verify=True, seed=3,
                    gamma_override=1)
    report = run(cfg)
    assert report["verdict"] == "PASS" and report["schema"] == 2
    assert report["n_centers"] == len(report["centers"]) >= 1
    assert report["n_sampled"] >= report["n_centers"]
    if variant == "greedy":
        assert report["n_centers"] == report["k_found"]
    else:
        # even at gamma 1 a round draws far more than a cover needs
        assert report["n_sampled"] > report["n_centers"]


@pytest.mark.parametrize("variant", ["explicit", "implicit", "greedy"])
def test_report_counts_proper_updates(tmp_path, monkeypatch, variant):
    # a noisy triangle traversed twice; the CLI has no k' option, so k' is
    # forced small to make rounds fail and weights double
    corners = np.array([[0.0, 0.0], [30.0, 0.0], [15.0, 26.0]])
    t = np.linspace(0.0, 6.0, 60, endpoint=False)
    f = (t - np.floor(t))[:, None]
    side = np.floor(t).astype(int) % 3
    pts = (1.0 - f) * corners[side] + f * corners[(side + 1) % 3]
    pts += np.random.default_rng(1).normal(0.0, 0.15, pts.shape)
    path = str(tmp_path / "lap.txt")
    write_curve(curve_from_points(pts), path)
    forced = functools.partial(cli.SolverConfig, k_prime_override=4)
    monkeypatch.setattr(cli, "SolverConfig", forced)
    results = []

    def recorded(solve):
        def call(*args, **kwargs):
            results.append(solve(*args, **kwargs))
            return results[-1]

        return call

    for name in ("approx_cover", "implicit_approx_cover", "greedy_max_coverage"):
        monkeypatch.setattr(cli, name, recorded(getattr(cli, name)))
    report = run(RunConfig(input_path=path, delta=0.5, variant=variant, verify=True, seed=2))
    assert report["verdict"] == "PASS"
    assert report["proper_updates"] == results[0].proper_iterations
    assert report["coverage_filled"] == results[0].coverage_filled
    assert report["coverage_cache_hits"] == results[0].coverage_cache_hits
    if variant == "greedy":
        assert report["proper_updates"] == 0
        assert report["coverage_filled"] == report["n_sampled"]
        assert report["coverage_cache_hits"] == 0
    else:
        assert 0 < report["proper_updates"] <= report["iterations"]
        # every candidate of the last round is filled
        assert report["coverage_filled"] >= report["n_sampled"]
    if variant == "explicit":  # rounds redraw from a few hundred candidates
        assert report["coverage_cache_hits"] > 0
    # one feasible-set mass per update, each light
    assert report["feasible_mass"] == results[0].feasible_mass
    assert len(report["feasible_mass"]) == report["proper_updates"]
    assert all(0.0 < m <= 0.5 for m in report["feasible_mass"])
    if variant == "explicit":
        feasibility = report["feasibility"]
        assert feasibility == results[0].feasibility
        assert feasibility["masks"] + feasibility["table_queries"] >= report["proper_updates"]
    else:
        assert report["feasibility"] is None
    # one entry per target size tried, which together count every round and update
    assert report["phases"] == results[0].phases
    if variant == "greedy":
        assert report["phases"] == []
    else:
        assert [p["k"] for p in report["phases"]] == [2 ** (i + 1) for i in range(len(report["phases"]))]
        assert report["phases"][-1]["k"] == report["k_found"]
        assert all(p["k_prime"] == 4 for p in report["phases"])
        assert sum(p["rounds"] for p in report["phases"]) == report["iterations"]
        assert sum(p["proper_updates"] for p in report["phases"]) == report["proper_updates"]


@pytest.mark.parametrize("variant", ["explicit", "implicit", "greedy"])
def test_report_times_each_stage(tmp_path, variant):
    path = write(tmp_path, "tri.txt", "0 0\n6 0\n3 5\n0 0\n6 0\n")
    out = tmp_path / "report.json"
    cfg = RunConfig(input_path=path, delta=0.5, variant=variant, verify=True, seed=3,
                    gamma_override=1, output_json_path=str(out))
    report = run(cfg)
    assert report["schema"] == 2
    assert set(report["stage_s"]) == {"ingest", "simplify", "solve", "verify"}
    assert json.loads(out.read_text())["stage_s"].keys() == report["stage_s"].keys()


def test_run_bad_config():
    with pytest.raises(ValueError):
        RunConfig(input_path="x", delta=-1)
    with pytest.raises(ValueError):
        RunConfig(input_path="x", delta=1, variant="magic")


def test_main_exit_codes(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "\n".join(f"{x} 0" for x in np.linspace(0, 5, 6)))
    out = str(tmp_path / "report.json")
    code = main(["--input", path, "--delta", "1.0", "--verify", "--out", out])
    assert code == 0
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["verdict"] == "PASS"
    captured = capsys.readouterr()
    assert '"schema": 2' in captured.out

    code = main(["--input", str(tmp_path / "missing.txt"), "--delta", "1.0"])
    assert code == 2


def _wave(k):
    """The 60-point curve (20t, sin 8t) scaled by 2^k."""
    t = np.linspace(0.0, 1.0, 60)
    return np.ldexp(np.c_[20.0 * t, np.sin(8.0 * t)], k)


@pytest.mark.parametrize("delta", ["0", "-1", "nan", "inf", "1e160"])
def test_main_at_extreme_deltas(tmp_path, capsys, delta):
    path = str(tmp_path / "wave.txt")
    np.savetxt(path, _wave(0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["--input", path, "--delta", delta, "--verify"])
    out, err = capsys.readouterr()
    if delta == "1e160":  # the whole curve lies within delta of one point
        assert code == 0 and json.loads(out)["n_centers"] == 1
    else:
        assert code == 2 and err == "error: delta must be positive and finite\n", err


@pytest.mark.parametrize("k", [-660, -60, 0, 60, 500])
def test_scaled_curves_give_the_unscaled_cover(tmp_path, k):
    # power-of-two scaling is exact; the solve's squares under- or overflow
    # at the far ends unless it runs at one scale
    reports = []
    for shift in (0, k):
        path = str(tmp_path / f"wave{shift}.txt")
        np.savetxt(path, _wave(shift), fmt="%.17g")
        reports.append(run(RunConfig(input_path=path, delta=np.ldexp(0.5, shift), verify=True)))
    base, got = reports
    assert base["verdict"] == "PASS" and base["n_centers"] == 3
    assert got["delta"] == np.ldexp(base["delta"], k)
    assert got["guarantee_radius"] == np.ldexp(base["guarantee_radius"], k)
    assert got["centers"] == np.ldexp(base["centers"], k).tolist()
    skip = {"input", "delta", "guarantee_radius", "centers", "stage_s", "wall_time_s"}
    assert {key: v for key, v in got.items() if key not in skip} == {
        key: v for key, v in base.items() if key not in skip
    }


def test_failed_run_writes_report_with_diagnostics(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise SolverFailure("target size cap exceeded", {"max_k": 4, "rounds": 7})

    monkeypatch.setattr(cli, "approx_cover", fail)
    path = write(tmp_path, "f.txt", "\n".join(f"{x} 0" for x in np.linspace(0, 5, 6)))
    out = tmp_path / "report.json"
    assert main(["--input", path, "--delta", "1.0", "--out", str(out)]) == 1
    data = json.loads(out.read_text())
    assert data["verdict"] == "FAILED"
    assert data["failure"] == "target size cap exceeded"
    assert data["diagnostics"] == {"max_k": 4, "rounds": 7}
    assert set(data["stage_s"]) == {"ingest", "simplify", "solve"}


def test_svg_well_formed_and_deterministic(tmp_path):
    P = curve_from_points([(0, 0), (1, 1), (2, 0)])
    centers = [Segment((0, 0), (2, 0))]
    cov = [Interval(0.0, 1.0)]
    p1, p2 = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
    render_svg(P, centers, cov, p1)
    render_svg(P, centers, cov, p2)
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
    root = ET.parse(p1).getroot()
    assert root.tag.endswith("svg")
    assert "viewBox" in root.attrib


def test_svg_rejects_3d(tmp_path):
    P = curve_from_points([(0, 0, 0), (1, 1, 1)])
    with pytest.raises(ValueError):
        render_svg(P, [], [], str(tmp_path / "x.svg"))


def test_svg_empty_centers(tmp_path):
    P = curve_from_points([(0, 0), (1, 0)])
    path = str(tmp_path / "c.svg")
    render_svg(P, [], [], path)
    root = ET.parse(path).getroot()
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 1
