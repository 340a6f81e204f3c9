"""The array SVG writer against the per-point writer it replaced.

`oracle_line_plot_svg` is that writer, formatting every vertex in Python. The
array writer must give the same file outside `points="..."`, and each polyline
may only leave out vertices that do not change the drawing: a repeat of the
vertex before it, or a point inside an axis-aligned run of its neighbours.
"""

import html
import math
import re
import sys
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hoeg.recipes
from hoeg import svgplot
from hoeg.recipes import run_recipe
from hoeg.svgplot import _ticks, line_plot_svg, trajectory_plot_svg

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 50
_COLORS = svgplot._COLORS


def _oracle_transform(values, log_scale):
    out = []
    for v in values:
        if log_scale:
            out.append(math.log10(v) if v > 0 else None)
        else:
            out.append(float(v))
    return out


def oracle_ticks(lo, hi, log_scale, count=5):
    """The tick placement and `.4g` labels the axes had before labels were told apart."""
    if log_scale:
        lo_i, hi_i = math.floor(lo), math.ceil(hi)
        step = max(1, (hi_i - lo_i) // count)
        return [(t, f"1e{t}") for t in range(lo_i, hi_i + 1, step)]
    span = hi - lo or 1.0
    if span == math.inf:
        raise ValueError(f"cannot place ticks on [{lo:g}, {hi:g}]: its width overflows the float range")
    if span / count < sys.float_info.min:
        return [(lo, f"{lo:.4g}")]
    step = 10 ** math.floor(math.log10(span / count))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= count:
            step *= mult
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * span:
        ticks.append((t, f"{t:.4g}"))
        if t + step == t:
            break
        t += step
    return ticks


def _oracle_runs(xs, ys):
    """The maximal runs of points whose coordinates both have a finite place on their axes."""
    runs, run = [], []
    for x, y in zip(xs, ys):
        if x is not None and y is not None and math.isfinite(x) and math.isfinite(y):
            run.append((x, y))
        elif run:
            runs, run = runs + [run], []
    return runs + [run] if run else runs


def oracle_line_plot_svg(path, series, title="", xlabel="", ylabel="", logx=False, logy=False,
                         ticks=_ticks):
    """The per-point writer; `ticks` is the module's own, so only the polylines can differ.

    Each run of finite points is one polyline, or a dot where all its points are
    written alike, and only those points bound the axes; an axis whose width in
    pixels would overflow is refused.  Texts are escaped by `html.escape`.
    """
    title, xlabel, ylabel = (html.escape(text, quote=False) for text in (title, xlabel, ylabel))
    txy = [(label, _oracle_runs(_oracle_transform(xs, logx), _oracle_transform(ys, logy)))
           for label, xs, ys in series]
    all_pts = [pt for _, runs in txy for run in runs for pt in run]
    if not all_pts:
        raise ValueError("nothing to plot")
    xs_all = [p[0] for p in all_pts]
    ys_all = [p[1] for p in all_pts]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    for lo, hi, length in ((x_lo, x_hi, _W - _ML - _MR), (y_lo, y_hi, _H - _MT - _MB)):
        if not math.isfinite(length * (hi - lo)):
            raise ValueError(f"cannot place ticks on [{lo:g}, {hi:g}]: its width overflows the float range")

    def px(x):
        return _ML + (_W - _ML - _MR) * (x - x_lo) / (x_hi - x_lo)

    def py(y):
        return _H - _MB - (_H - _MT - _MB) * (y - y_lo) / (y_hi - y_lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        'fill="none" stroke="black"/>',
    ]
    if title:
        parts.append(f'<text x="{_W / 2}" y="24" text-anchor="middle" font-size="15">{title}</text>')
    if xlabel:
        parts.append(f'<text x="{_W / 2}" y="{_H - 12}" text-anchor="middle">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{_H / 2}" text-anchor="middle" '
                     f'transform="rotate(-90 16 {_H / 2})">{ylabel}</text>')
    for t, label in ticks(x_lo, x_hi, logx):
        x = px(t)
        parts.append(f'<line x1="{x:.1f}" y1="{_H - _MB}" x2="{x:.1f}" y2="{_H - _MB + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{_H - _MB + 18}" text-anchor="middle">{label}</text>')
    for t, label in ticks(y_lo, y_hi, logy):
        y = py(t)
        parts.append(f'<line x1="{_ML - 5}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{y + 4:.1f}" text-anchor="end">{label}</text>')
    for i, (label, runs) in enumerate(txy):
        if not runs:
            continue
        color = _COLORS[i % len(_COLORS)]
        for pts in runs:
            coords = [f"{px(x):.2f},{py(y):.2f}" for x, y in pts]
            if len(set(coords)) > 1:
                parts.append(f'<polyline points="{" ".join(coords)}" fill="none" stroke="{color}" '
                             'stroke-width="1.5"/>')
            else:
                cx, cy = coords[0].split(",")
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="1.5" fill="{color}"/>')
        parts.append(f'<text x="{_W - _MR - 8}" y="{_MT + 16 + 16 * i}" text-anchor="end" '
                     f'fill="{color}">{html.escape(label, quote=False)}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(parts))


_POINTS = re.compile(r'points="([^"]*)"')
_NUMBER = r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"  # the SVG grammar's number: no nan or inf
_PAIRS = re.compile(rf"{_NUMBER},{_NUMBER}(?: {_NUMBER},{_NUMBER})*")


def assert_valid_svg(path):
    """The file parses as XML, the points of each polyline are number,number pairs of
    at least two vertices, and each dot's centre is two numbers."""
    root = ElementTree.parse(path).getroot()
    for line in root.iter("{http://www.w3.org/2000/svg}polyline"):
        assert _PAIRS.fullmatch(line.get("points")) and " " in line.get("points"), line.get("points")
    for dot in root.iter("{http://www.w3.org/2000/svg}circle"):
        assert re.fullmatch(_NUMBER, dot.get("cx")) and re.fullmatch(_NUMBER, dot.get("cy")), dot.attrib
    return root


def _vertex(text):
    x, y = text.split(",")
    return float(x), float(y)


def _between(a, lo, hi):
    return min(lo, hi) <= a <= max(lo, hi)


def assert_thinned(oracle_svg, svg):
    """`svg` is `oracle_svg` outside its points, and each polyline keeps the first and
    last vertex, never repeats a vertex, and drops only what leaves the drawing as it is."""
    assert _POINTS.sub('points=""', svg) == _POINTS.sub('points=""', oracle_svg)
    for full, thin in zip(_POINTS.findall(oracle_svg), _POINTS.findall(svg), strict=True):
        full, thin = full.split(" "), thin.split(" ")
        assert (thin[0], thin[-1]) == (full[0], full[-1])
        assert all(a != b for a, b in zip(thin, thin[1:]))
        kept_at, j = [], 0  # the index in `full` of each kept vertex, matched in order
        for i, v in enumerate(full):
            if j < len(thin) and v == thin[j]:
                kept_at.append(i)
                j += 1
        assert j == len(thin), "a polyline is not a subsequence of the oracle's"
        kept = set(kept_at)
        for i, v in enumerate(full):
            if i in kept:
                continue
            before = max(k for k in kept_at if k < i)
            if v == full[before]:
                continue
            after = min(k for k in kept_at if k > i)
            (x, y), (x0, y0), (x1, y1) = _vertex(v), _vertex(full[before]), _vertex(full[after])
            assert ((y == y0 == y1 and _between(x, x0, x1))
                    or (x == x0 == x1 and _between(y, y0, y1))), (full[before], v, full[after])


def _outcome(write, path, *args, **kwargs):
    """The file `write` makes, checked as valid SVG, or the type and message of what it raises."""
    try:
        write(path, *args, **kwargs)
    except Exception as exc:  # compared by type and message, whatever it is
        return type(exc), str(exc)
    assert_valid_svg(path)
    return path.read_text(encoding="utf-8")


def assert_same_as_oracle(tmp_path, series, **kwargs):
    expected = _outcome(oracle_line_plot_svg, tmp_path / "oracle.svg", series, **kwargs)
    got = _outcome(line_plot_svg, tmp_path / "new.svg", series, **kwargs)
    if isinstance(expected, tuple) or isinstance(got, tuple):
        assert got == expected
    else:
        assert_thinned(expected, got)
    return got


_NAN, _INF = math.nan, math.inf


@pytest.mark.parametrize("series, kwargs", [
    ([], {}),  # no series
    ([("a", [], [])], {}),
    ([("a", [1.0, 2.0], [0.0, -1.0])], {"logy": True}),  # nothing left on the log axis
    ([("a", [0.0, -3.0], [1.0, 2.0]), ("b", [-1.0], [5.0])], {"logx": True}),
    ([("a", [3.0], [4.0])], {}),  # a single point
    ([("a", [3.0], [4.0])], {"logx": True, "logy": True}),
    ([("a", [1.0, 2.0, 3.0], [5.0, 5.0, 5.0])], {}),  # a constant axis
    ([("a", [7.0, 7.0, 7.0], [1.0, 3.0, 2.0])], {}),
    ([("a", [1.0, 2.0, 3.0], [1e20, 1e20, 1e20])], {}),  # a constant axis whose width rounds to 0
    ([("a", [1.0, 2.0, 3.0], [-1.746630289381022e16] * 3)], {}),  # ... and that has no tick
    ([("a", [-1.746630289381022e16] * 2, [1.0, 2.0])], {}),
    ([("a", [1.0, 2.0, 3.0], [1e300, 1e300, 1e300])], {"logy": True}),
    ([("a", [_NAN, 1.0, 2.0], [1.0, 2.0, 3.0])], {}),  # a NaN is not drawn and bounds no axis
    ([("a", [1.0, _NAN, 2.0, 3.0], [1.0, 2.0, 2.0, 2.0])], {}),  # ... and splits the line
    ([("a", [1.0, _NAN, _NAN, 3.0], [2.0, 2.0, 2.0, 2.0])], {}),
    ([("a", [1.0, 2.0], [1.0, _INF])], {}),
    ([("a", [-_INF, 2.0], [1.0, 2.0])], {}),
    ([("a", [_INF, _INF], [1.0, 2.0])], {}),
    ([("a", [1.0, 2.0, 3.0], [_NAN, 1.0, _INF])], {"logy": True}),  # NaN drops on a log axis
    ([("a", [-1e306, 0.0, 1e306], [1.0, 1.0, 2.0])], {}),  # 630 times the width overflows: refused
    ([("a", [1.0, 2.0, 3.0], [1.0, _INF, 3.0]), ("b", [_NAN], [1.0])], {}),
])
def test_degenerate_input_matches_the_oracle(tmp_path, series, kwargs):
    assert_same_as_oracle(tmp_path, series, **kwargs)


def test_a_flat_run_keeps_its_ends_and_a_repeat_is_dropped(tmp_path):
    svg = assert_same_as_oracle(tmp_path, [("a", [1, 2, 2, 3, 4, 5, 5], [0, 0, 0, 0, 0, 1, 1])])
    assert _POINTS.findall(svg) == ["70.00,430.00 542.50,430.00 700.00,40.00"]


def test_a_non_finite_vertex_splits_the_line_and_bounds_no_axis(tmp_path):
    line_plot_svg(tmp_path / "t.svg", [("a", [0.0, 1.0, _NAN, 2.0, 3.0, 4.0], [0.0, 1.0, 1.0, 2.0, _INF, 3.0])])
    assert_valid_svg(tmp_path / "t.svg")
    svg = (tmp_path / "t.svg").read_text()
    assert _POINTS.findall(svg) == ["70.00,430.00 227.50,300.00"]
    assert re.findall(r'<polyline [^>]*stroke="([^"]*)"', svg) == [_COLORS[0]]
    assert svg.count(">a</text>") == 1


def test_a_run_of_one_vertex_is_a_dot_at_its_pixel(tmp_path):
    # x = 2 and x = 4 are alone between non-finite values; x = 0..1 spans 630 px
    # over [0, 4] and y = 0..3 spans 390 px, so they sit at (385, 170) and (700, 40)
    line_plot_svg(tmp_path / "t.svg", [("a", [0.0, 1.0, _NAN, 2.0, 3.0, 4.0], [0.0, 1.0, 1.0, 2.0, _INF, 3.0]),
                                       ("b", [_NAN, 1.0, _NAN], [0.0, 1.5, 0.0])])
    root = assert_valid_svg(tmp_path / "t.svg")
    dots = [(float(c.get("cx")), float(c.get("cy")), c.get("fill"))
            for c in root.iter("{http://www.w3.org/2000/svg}circle")]
    assert dots == [(385.0, 170.0, _COLORS[0]), (700.0, 40.0, _COLORS[0]), (227.5, 235.0, _COLORS[1])]


def test_trajectory_plot_takes_an_empty_trace_and_rejects_a_plot_of_nothing(tmp_path):
    with pytest.raises(ValueError, match="nothing to plot"):
        trajectory_plot_svg(tmp_path / "t.svg", [("a", [])])
    trajectory_plot_svg(tmp_path / "t.svg", [("a", []), ("b", np.array([[0.0, 1.0], [2.0, 3.0]]))])
    assert_valid_svg(tmp_path / "t.svg")
    assert _POINTS.findall((tmp_path / "t.svg").read_text()) == ["70.00,430.00 700.00,40.00"]


_PLAIN = st.sampled_from((0.0, -1.0, 1.0, 2.0, 1e-3, 10.0)) | st.floats(-1e3, 1e3, allow_nan=False)
_WILD = _PLAIN | st.sampled_from((1e20, 1e300, -1e306, 1e306, _NAN, _INF, -_INF))


@st.composite
def _column(draw, n, value):
    """n values with repeats and flat runs: runs of one value, or a walk whose steps may be 0."""
    if draw(st.booleans()):
        runs = draw(st.lists(st.tuples(value, st.integers(1, 40)), min_size=1, max_size=n))
        out = [v for v, k in runs for _ in range(k)]
        out += [out[-1]] * n
    else:
        steps = draw(st.lists(st.sampled_from((0.0, 0.0, 1.0, 0.5, -1.0)) | value, min_size=n, max_size=n))
        with np.errstate(all="ignore"):  # a walk may overflow
            out = np.cumsum([draw(value)] + steps).tolist()
    return out[:n]


# label text: the characters XML must escape, and others it must keep as they are
_TEXT = st.text(st.sampled_from("<>&;#'\" a1_|"), max_size=8)


@st.composite
def _series(draw):
    """One to three series; one plot in four may hold huge, infinite or NaN values."""
    value = _WILD if draw(st.integers(0, 3)) == 0 else _PLAIN
    plots = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 300))
        plots.append((draw(_TEXT), draw(_column(n, value)), draw(_column(n, value))))
    return plots


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_series(), st.booleans(), st.booleans(), _TEXT, _TEXT, _TEXT)
def test_the_array_writer_thins_the_oracle_and_changes_nothing_else(tmp_path_factory, series, logx, logy,
                                                                    title, xlabel, ylabel):
    svg = assert_same_as_oracle(tmp_path_factory.mktemp("svg"), series, logx=logx, logy=logy,
                                title=title, xlabel=xlabel, ylabel=ylabel)
    if isinstance(svg, tuple):  # both writers raised alike
        return
    # every label round-trips: the title and axis labels when given, and each series' label
    # when the series draws anything; ticks are the texts that follow the axis labels
    drawn = [label for label, xs, ys in series
             if _oracle_runs(_oracle_transform(xs, logx), _oracle_transform(ys, logy))]
    written = [node.text or "" for node in ElementTree.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
    given_texts = [text for text in (title, xlabel, ylabel) if text]
    assert written[:len(given_texts)] == given_texts
    assert written[len(written) - len(drawn):] == drawn


def test_recipe_svgs_thin_the_oracle_svgs(tmp_path, monkeypatch):
    run_recipe("mforsaken", str(tmp_path / "new"))
    monkeypatch.setattr(svgplot, "line_plot_svg", oracle_line_plot_svg)
    monkeypatch.setattr(hoeg.recipes, "line_plot_svg", oracle_line_plot_svg)
    run_recipe("mforsaken", str(tmp_path / "oracle"))
    names = sorted(p.name for p in (tmp_path / "oracle").iterdir())
    assert sorted(p.name for p in (tmp_path / "new").iterdir()) == names
    for name in names:
        oracle, new = ((tmp_path / side / name).read_text() for side in ("oracle", "new"))
        if name.endswith(".svg"):
            assert_valid_svg(tmp_path / "new" / name)
            assert_thinned(oracle, new)
            assert len(new) < len(oracle)
        else:
            assert new == oracle


_AXES = [(lo, hi) for lo in (0.0, -5e-324, 1e-310, 1e-300, 1e-3, 1.0, -1.0, 0.1, 1e10, 1e300, -1.7e308)
         for hi in (math.nextafter(lo, math.inf), lo + 1e-12, lo + 1e-6, lo + 0.3, lo + 7.0, lo + 1e6,
                    abs(lo) * 2 + 1.0)
         if hi > lo and math.isfinite(hi)]


@pytest.mark.parametrize("lo, hi", _AXES)
def test_tick_labels_are_distinct_and_keep_their_4g_form_where_it_was(lo, hi):
    ticks, before = _ticks(lo, hi, False), oracle_ticks(lo, hi, False)
    labels = [label for _, label in ticks]
    assert len(set(labels)) == len(labels)
    if len({label for _, label in before}) == len(before):
        assert ticks == before
    else:  # ticks at one double are merged: one tick per place
        assert [float(t) for t, _ in ticks] == sorted({float(t) for t, _ in before})


def test_ticks_a_few_ulps_of_1e300_wide_get_distinct_labels():
    hi = math.nextafter(1e300, math.inf)
    assert [label for _, label in oracle_ticks(1e300, hi, False)] == ["1e+300"] * 5
    assert [(float(t), label) for t, label in _ticks(1e300, hi, False)] == [
        (1e300, "1.0000000000000001e+300"), (hi, "1.0000000000000002e+300")]


def test_titles_and_labels_are_escaped_and_the_file_parses(tmp_path):
    texts = {"title": "F & F_alpha", "xlabel": "k < 10", "ylabel": "|F| > 0"}
    line_plot_svg(tmp_path / "t.svg", [("x<y & z", [1.0, 2.0], [3.0, 4.0])], **texts)
    assert_valid_svg(tmp_path / "t.svg")
    root = ElementTree.parse(tmp_path / "t.svg").getroot()
    written = [node.text for node in root.iter("{http://www.w3.org/2000/svg}text")]
    assert set(texts.values()) | {"x<y & z"} <= set(written)
