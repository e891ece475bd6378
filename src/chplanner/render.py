"""Static top-down SVG snapshots of scenario states.

Presentation only: the drawings are not versioned and nothing downstream
parses them.  Hand-rolled SVG keeps the output dependency-free and
deterministic.
"""

from __future__ import annotations

from .traffic import MERGE_SECTION, Scenario, VehicleState

_CAR_WIDTH = 2.0
_SCALE = 6.0  # pixels per meter


def _rect(x: float, y: float, w: float, h: float, fill: str, opacity: float = 1.0) -> str:
    return (
        f'<rect x="{x:.1f}" y="{y:.1f}" width="{w:.1f}" height="{h:.1f}" '
        f'fill="{fill}" opacity="{opacity:.2f}"/>'
    )


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str, dash: str = "") -> str:
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
        f'stroke="{stroke}" stroke-width="1.5"{dash_attr}/>'
    )


class _Canvas:
    def __init__(self, x_range: tuple[float, float], y_range: tuple[float, float]):
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        self.width = (self.x1 - self.x0) * _SCALE
        self.height = (self.y1 - self.y0) * _SCALE
        self.parts: list[str] = []

    def px(self, x: float) -> float:
        return (x - self.x0) * _SCALE

    def py(self, y: float) -> float:
        # SVG y grows downward; world y grows upward.
        return (self.y1 - y) * _SCALE

    def rect_world(self, cx: float, cy: float, w: float, h: float, fill: str,
                   opacity: float = 1.0) -> None:
        self.parts.append(
            _rect(self.px(cx - w / 2), self.py(cy + h / 2), w * _SCALE, h * _SCALE,
                  fill, opacity)
        )

    def line_world(self, x1: float, y1: float, x2: float, y2: float, stroke: str,
                   dash: str = "") -> None:
        self.parts.append(_line(self.px(x1), self.py(y1), self.px(x2), self.py(y2),
                                stroke, dash))

    def text(self, x: float, y: float, s: str) -> None:
        self.parts.append(
            f'<text x="{self.px(x):.1f}" y="{self.py(y):.1f}" font-size="12" '
            f'font-family="sans-serif">{s}</text>'
        )

    def svg(self) -> str:
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width:.0f}" '
            f'height="{self.height:.0f}">\n{body}\n</svg>\n'
        )


def _draw_car(canvas: _Canvas, x: float, y: float, along_x: bool, length: float,
              fill: str) -> None:
    if along_x:
        canvas.rect_world(x, y, length, _CAR_WIDTH, fill)
    else:
        canvas.rect_world(x, y, _CAR_WIDTH, length, fill)


def render_step(scenario: Scenario, ego: VehicleState | None,
                human: VehicleState | None, t: int) -> str:
    """One top-down snapshot of the joint state at step ``t``."""
    config = scenario.config
    w = config.lane_width
    if config.name == "intersection":
        lo = min(config.ego_pos_min, config.human_pos_min) - 2
        hi = max(config.ego_pos_max, config.human_pos_max) + 2
        canvas = _Canvas((lo, hi), (lo, hi))
        canvas.rect_world((lo + hi) / 2, 0.0, hi - lo, 2 * w, "#d9d9d9")
        canvas.rect_world(0.0, (lo + hi) / 2, 2 * w, hi - lo, "#d9d9d9")
        canvas.line_world(lo, 0.0, hi, 0.0, "#ffffff", "6,6")
        canvas.line_world(0.0, lo, 0.0, hi, "#ffffff", "6,6")
        if ego is not None:
            ex, ey = scenario.ego_grid.world_xy(ego)
            _draw_car(canvas, ex, ey, True, config.car_length, "#2f6fb3")
        if human is not None:
            hx, hy = scenario.human_grid.world_xy(human)
            _draw_car(canvas, hx, hy, False, config.car_length, "#c23b3b")
    else:
        lo = config.ego_pos_min - 2
        hi = config.ego_pos_max + 2
        canvas = _Canvas((lo, hi), (-1.0, 2 * w + 1.0))
        canvas.rect_world((lo + hi) / 2, w, hi - lo, 2 * w, "#d9d9d9")
        if config.name == "merging":
            # Shade the section where the merge is allowed.
            start, end = MERGE_SECTION
            canvas.rect_world((start + end) / 2, w, end - start, 2 * w, "#bfbfbf", 0.6)
            canvas.line_world(lo, w, start, w, "#ffffff")
            canvas.line_world(start, w, end, w, "#8a8a8a", "4,4")
            canvas.line_world(end, w, hi, w, "#ffffff")
        else:
            canvas.line_world(lo, w, hi, w, "#ffffff", "6,6")
        if ego is not None:
            ex, ey = scenario.ego_grid.world_xy(ego)
            _draw_car(canvas, ex, ey, True, config.car_length, "#2f6fb3")
        if human is not None:
            hx, hy = scenario.human_grid.world_xy(human)
            _draw_car(canvas, hx, hy, True, config.car_length, "#c23b3b")
    canvas.text(canvas.x0 + 2, canvas.y1 - 2, f"t={t}")
    return canvas.svg()
