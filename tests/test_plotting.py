"""SVG chart emitter: structure, not pixels."""

import html
import xml.etree.ElementTree as ET

from hypothesis import given
from hypothesis import strategies as st

from relaysim.montecarlo import AXES, SweepRow
from relaysim.plotting import AXIS_LABELS, _escape, emit_plot


def _row(scheme, axis_value, mean, stderr=0.1):
    return SweepRow(
        scheme=scheme,
        axis="relay_count",
        axis_value=axis_value,
        m=2,
        n=2,
        k=axis_value,
        pnr_db=10.0,
        qnr_db=10.0,
        alpha=1.0,
        trials=100,
        seed=0,
        capacity_mean_bits=mean,
        capacity_stderr_bits=stderr,
    )


def test_single_series_two_points_gives_one_polyline(tmp_path):
    rows = [_row("mf", 1, 2.0), _row("mf", 2, 3.0)]
    path = tmp_path / "chart.svg"
    emit_plot(rows, path)
    svg = path.read_text()
    assert svg.count("<polyline") == 1
    assert svg.count("<circle") == 2


def test_one_polyline_per_series(tmp_path):
    rows = []
    for scheme in ("af", "mf", "mf-rzf", "upper-bound"):
        rows += [_row(scheme, 1, 2.0), _row(scheme, 2, 3.0), _row(scheme, 4, 3.5)]
    path = tmp_path / "chart.svg"
    emit_plot(rows, path)
    svg = path.read_text()
    assert svg.count("<polyline") == 4
    assert svg.count("<circle") == 12


def test_legend_carries_series_names(tmp_path):
    rows = [_row("mf", 1, 2.0), _row("mf", 2, 3.0), _row("upper-bound", 1, 4.0), _row("upper-bound", 2, 5.0)]
    path = tmp_path / "chart.svg"
    emit_plot(rows, path, title="demo")
    svg = path.read_text()
    assert ">mf</text>" in svg
    assert ">upper-bound</text>" in svg
    assert ">demo</text>" in svg


def test_error_bars_scale_with_stderr(tmp_path):
    # Three <line> elements (stem plus two caps) appear per point once
    # the stderr is visibly large; with stderr 0 none are drawn.
    noisy = [_row("mf", 1, 2.0, stderr=0.5), _row("mf", 2, 3.0, stderr=0.5)]
    flat = [_row("mf", 1, 2.0, stderr=0.0), _row("mf", 2, 3.0, stderr=0.0)]
    noisy_path = tmp_path / "noisy.svg"
    flat_path = tmp_path / "flat.svg"
    emit_plot(noisy, noisy_path)
    emit_plot(flat, flat_path)
    noisy_bars = noisy_path.read_text().count('class="errbar"')
    flat_bars = flat_path.read_text().count('class="errbar"')
    assert noisy_bars == 6
    assert flat_bars == 0


def test_output_is_wellformed_xml(tmp_path):
    rows = [_row("af", 1, 2.0), _row("af", 2, 2.0)]  # flat series: degenerate y range
    path = tmp_path / "chart.svg"
    emit_plot(rows, path)
    root = ET.fromstring(path.read_text())
    assert root.tag.endswith("svg")


def test_axis_labels_cover_exactly_the_sweep_axes():
    assert set(AXIS_LABELS) == set(AXES)


@given(st.text())
def test_title_escape_is_htmls_without_quotes(text):
    # the package escapes titles itself rather than import html
    assert _escape(text) == html.escape(text, quote=False)
