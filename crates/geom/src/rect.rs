//! Axis-aligned rectangles, used as simulation map bounds.

use crate::vec2::Vec2;

/// An axis-aligned rectangle `[0, width] × [0, height]` anchored at the
/// origin, in meters.
///
/// # Examples
///
/// ```
/// use manet_geom::{Rect, Vec2};
///
/// let map = Rect::new(1500.0, 1500.0);
/// assert!(map.contains(Vec2::new(100.0, 1400.0)));
/// assert!(!map.contains(Vec2::new(-1.0, 0.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    width: f64,
    height: f64,
}

impl Rect {
    /// Creates a rectangle with the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is not positive and finite.
    pub fn new(width: f64, height: f64) -> Self {
        assert!(
            width.is_finite() && width > 0.0 && height.is_finite() && height > 0.0,
            "rectangle dimensions must be positive and finite: {width} x {height}"
        );
        Rect { width, height }
    }

    /// Width in meters.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Height in meters.
    pub fn height(&self) -> f64 {
        self.height
    }

    /// Area in square meters.
    pub fn area(&self) -> f64 {
        self.width * self.height
    }

    /// `true` when `p` lies inside or on the boundary.
    pub fn contains(&self, p: Vec2) -> bool {
        (0.0..=self.width).contains(&p.x) && (0.0..=self.height).contains(&p.y)
    }

    /// The center point.
    pub fn center(&self) -> Vec2 {
        Vec2::new(self.width / 2.0, self.height / 2.0)
    }

    /// Clamps `p` onto the rectangle (component-wise).
    pub fn clamp(&self, p: Vec2) -> Vec2 {
        p.clamp(Vec2::ZERO, Vec2::new(self.width, self.height))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_boundary() {
        let r = Rect::new(10.0, 20.0);
        assert!(r.contains(Vec2::ZERO));
        assert!(r.contains(Vec2::new(10.0, 20.0)));
        assert!(!r.contains(Vec2::new(10.1, 0.0)));
        assert!(!r.contains(Vec2::new(0.0, -0.1)));
    }

    #[test]
    fn geometry_accessors() {
        let r = Rect::new(10.0, 20.0);
        assert_eq!(r.area(), 200.0);
        assert_eq!(r.center(), Vec2::new(5.0, 10.0));
    }

    #[test]
    fn clamp_pins_to_edges() {
        let r = Rect::new(10.0, 10.0);
        assert_eq!(r.clamp(Vec2::new(-5.0, 15.0)), Vec2::new(0.0, 10.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_panics() {
        let _ = Rect::new(0.0, 5.0);
    }
}
