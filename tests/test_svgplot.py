"""``svgplot.line_chart`` at the ends of the float range: extreme but finite
values still give an SVG, every coordinate in it finite."""

import re
import sys

import pytest

from vrgrad.svgplot import line_chart

BIG = sys.float_info.max

# name -> (xs, ys); each y is positive, so every point is plotted
EXTREMES = {
    # 10.0 ** -324 underflows to 0, and 10.0 ** 309 overflows
    "y-smallest-subnormal": ([1.0, 2.0], [5e-324, 1e-3]),
    "y-subnormal-decades": ([1.0, 2.0], [1e-323, 1e-318]),
    "y-near-the-largest": ([1.0, 2.0], [1e305, 1.5e308]),
    "y-largest": ([1.0, 2.0, 3.0], [BIG, 1e308, 1e306]),
    "y-both-ends": ([1.0, 2.0], [BIG, 5e-324]),
    # v += step no longer moves v at 1e17, whose ulp is 16
    "x-16-apart-at-1e17": ([1e17, 1e17 + 16], [1.0, 0.5]),
    # x_lo + 1 == x_lo
    "x-equal-at-1e17": ([1e17, 1e17], [1.0, 0.5]),
    "x-equal-near-the-largest": ([BIG / 2, BIG / 2], [1.0, 0.5]),
}


@pytest.mark.parametrize("xs, ys", EXTREMES.values(), ids=EXTREMES)
def test_extreme_finite_values_give_a_finite_svg(xs, ys):
    svg = line_chart([("run", xs, ys)], "title", "x", "y")
    assert svg.startswith("<svg") and svg.endswith("</svg>\n")
    assert not re.search(r"nan|inf", svg, re.IGNORECASE)
    points = re.search(r'<polyline points="([^"]*)"', svg).group(1).split()
    assert len(points) == len(xs)


def test_an_x_range_below_the_step_s_rounding_keeps_its_tick():
    svg = line_chart([("run", [1e17, 1e17 + 16], [1.0, 0.5])], "title", "x", "y")
    assert ">1e+17</text>" in svg
