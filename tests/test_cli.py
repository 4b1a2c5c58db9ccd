import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

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


def test_ingest_write_roundtrip(tmp_path):
    path = write(tmp_path, "g.txt", "0 0\n1 0.25\n2.5 -1\n")
    P = ingest(path)
    out = str(tmp_path / "h.txt")
    write_curve(P, out)
    Q = ingest(out)
    assert np.array_equal(P.vertices, Q.vertices)


def test_run_segment_instance(tmp_path):
    path = write(tmp_path, "seg.txt", "\n".join(f"{x} 0" for x in np.linspace(0, 10, 12)))
    cfg = RunConfig(input_path=path, delta=1.0, verify=True, seed=5)
    report = run(cfg)
    assert report["verdict"] == "PASS"
    assert report["schema"] == 1
    assert report["k_found"] >= 2 and report["centers"]


def test_run_deterministic_reports(tmp_path):
    path = write(tmp_path, "seg2.txt", "\n".join(f"{x} {0.05 * ((-1) ** i)}" for i, x in enumerate(np.linspace(0, 8, 15))))
    r1 = run(RunConfig(input_path=path, delta=0.8, verify=True, seed=9))
    r2 = run(RunConfig(input_path=path, delta=0.8, verify=True, seed=9))
    r1.pop("wall_time_s")
    r2.pop("wall_time_s")
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
    assert report["verdict"] == "PASS" and report["schema"] == 1
    assert report["n_centers"] == len(report["centers"]) >= 1
    assert report["n_sampled"] >= report["n_centers"]
    if variant == "greedy":
        assert report["n_centers"] == report["k_found"]
    else:
        # even at gamma 1 a round draws far more than a cover needs
        assert report["n_sampled"] > report["n_centers"]


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
    assert '"schema": 1' in captured.out

    code = main(["--input", str(tmp_path / "missing.txt"), "--delta", "1.0"])
    assert code == 2


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
