//! The output canvas: a flattened view of the SVG node tree, giving every
//! shape a stable identity for zone assignment and direct manipulation.

use sns_eval::Value;

use crate::node::{node_from_value, SvgChild, SvgError, SvgNode};
use crate::render::{render, RenderOptions};
use crate::zones::{zones_of, ZoneSpec};

/// Stable identity of a shape within one canvas (pre-order index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShapeId(pub usize);

impl std::fmt::Display for ShapeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shape#{}", self.0)
    }
}

/// One shape in the canvas.
#[derive(Debug, Clone)]
pub struct Shape {
    /// The shape's canvas identity.
    pub id: ShapeId,
    /// The underlying SVG node (traces preserved).
    pub node: SvgNode,
}

impl Shape {
    /// The zones of this shape (Figure 5).
    pub fn zones(&self) -> Vec<ZoneSpec> {
        zones_of(&self.node)
    }

    /// Whether this is a hidden helper shape.
    pub fn hidden(&self) -> bool {
        self.node.hidden()
    }
}

/// The rendered output of a program: the root `svg` node plus a flattened
/// shape list.
#[derive(Debug, Clone)]
pub struct Canvas {
    root: SvgNode,
    shapes: Vec<Shape>,
}

impl Canvas {
    /// Builds a canvas from a program's output value.
    ///
    /// # Errors
    ///
    /// Returns an [`SvgError`] if the value is not a well-formed SVG node
    /// tree rooted at an `'svg'` node.
    pub fn from_value(value: &Value) -> Result<Canvas, SvgError> {
        let root = node_from_value(value)?;
        if root.kind != "svg" {
            return Err(SvgError::new(format!(
                "program output must be an 'svg' node, found '{}'",
                root.kind
            )));
        }
        let mut shapes = Vec::new();
        collect_shapes(&root, &mut shapes);
        Ok(Canvas { root, shapes })
    }

    /// The root `svg` node.
    pub fn root(&self) -> &SvgNode {
        &self.root
    }

    /// All shapes in pre-order.
    pub fn shapes(&self) -> &[Shape] {
        &self.shapes
    }

    /// Looks a shape up by id.
    pub fn shape(&self, id: ShapeId) -> Option<&Shape> {
        self.shapes.get(id.0)
    }

    /// Renders the canvas to SVG text (the editor's export feature).
    pub fn to_svg(&self, options: RenderOptions) -> String {
        render(&self.root, options)
    }

    /// A copy of the canvas with every traced number rewritten through
    /// `patch` (typically [`sns_eval::TracePatcher::patch`], re-evaluating
    /// each trace under an updated substitution). Structure, strings, and
    /// traces are preserved exactly; only numeric values move. Returns
    /// `None` when `patch` fails on any number, in which case the caller
    /// should rebuild the canvas from a full re-evaluation.
    pub fn patched(
        &self,
        patch: &mut dyn FnMut(f64, &std::sync::Arc<sns_eval::Trace>) -> Option<f64>,
    ) -> Option<Canvas> {
        let mut canvas = self.clone();
        canvas.patch_in_place(patch).then_some(canvas)
    }

    /// Rewrites every traced number of this canvas through `patch`, as
    /// [`Canvas::patched`] does to a copy. On `false` some numbers may
    /// already be rewritten: check with [`Canvas::patches`] first, or
    /// rebuild the canvas from a full re-evaluation.
    pub fn patch_in_place(
        &mut self,
        patch: &mut dyn FnMut(f64, &std::sync::Arc<sns_eval::Trace>) -> Option<f64>,
    ) -> bool {
        // Shapes hold copies of the root's subtrees (with the same traces,
        // so a memoizing `patch` serves them from its tables).
        crate::node::patch_node_nums(&mut self.root, patch).is_some()
            && self
                .shapes
                .iter_mut()
                .all(|s| crate::node::patch_node_nums(&mut s.node, patch).is_some())
    }

    /// Whether every traced number of the canvas patches through `patch`,
    /// i.e. whether [`Canvas::patched`] would succeed — decided by walking
    /// the tree in place, without building the patched copy.
    pub fn patches(
        &self,
        patch: &mut dyn FnMut(f64, &std::sync::Arc<sns_eval::Trace>) -> Option<f64>,
    ) -> bool {
        crate::node::check_node_nums(&self.root, patch).is_some()
    }

    /// Every traced number in every shape's attributes, in canvas order —
    /// the `w1 … wk` numeric outputs of the synthesis framework (§3).
    pub fn numeric_outputs(&self) -> Vec<crate::node::NumTr> {
        self.shapes
            .iter()
            .flat_map(|s| s.node.attr_nums().into_iter().cloned())
            .collect()
    }
}

fn collect_shapes(node: &SvgNode, shapes: &mut Vec<Shape>) {
    for child in &node.children {
        if let SvgChild::Node(n) = child {
            if n.kind == "svg" || n.kind == "g" {
                collect_shapes(n, shapes);
            } else {
                shapes.push(Shape {
                    id: ShapeId(shapes.len()),
                    node: n.clone(),
                });
                // Shapes may themselves have children (rare); recurse so
                // nested shapes are manipulable too.
                collect_shapes(n, shapes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_eval::Program;

    fn canvas_of(src: &str) -> Canvas {
        let v = Program::parse(src).unwrap().eval().unwrap();
        Canvas::from_value(&v).unwrap()
    }

    #[test]
    fn flattens_shapes_in_order() {
        let c = canvas_of("(svg [(rect 'a' 0 0 1 1) (circle 'b' 5 5 2) (line 'c' 1 0 0 9 9)])");
        let kinds: Vec<&str> = c.shapes().iter().map(|s| s.node.kind.as_str()).collect();
        assert_eq!(kinds, vec!["rect", "circle", "line"]);
        assert_eq!(c.shape(ShapeId(1)).unwrap().node.kind, "circle");
    }

    #[test]
    fn nested_svg_groups_are_flattened() {
        let c = canvas_of("(svg [['svg' [] [(rect 'a' 0 0 1 1)]] (circle 'b' 5 5 2)])");
        assert_eq!(c.shapes().len(), 2);
    }

    #[test]
    fn requires_svg_root() {
        let v = Program::parse("(rect 'a' 0 0 1 1)")
            .unwrap()
            .eval()
            .unwrap();
        assert!(Canvas::from_value(&v).is_err());
    }

    #[test]
    fn numeric_outputs_cover_all_attrs() {
        let c = canvas_of("(svg [(rect 'a' 10 20 30 40)])");
        let nums: Vec<f64> = c.numeric_outputs().iter().map(|n| n.n).collect();
        assert_eq!(nums, vec![10.0, 20.0, 30.0, 40.0]);
    }

    #[test]
    fn patched_canvas_matches_full_reevaluation() {
        use sns_eval::TracePatcher;
        use sns_lang::{LocId, Subst};

        let src = "(def [x0 sep] [40 25]) \
                   (svg (map (λ i (rect 'red' (+ x0 (* i sep)) 10 20 20)) (zeroTo 4!)))";
        let p = Program::parse(src).unwrap();
        let canvas = Canvas::from_value(&p.eval().unwrap()).unwrap();
        // User literals in order: x0, sep, y, w, h, 4! — six of them.
        let x0 = LocId(p.next_loc() - 6);
        let subst = Subst::from_pairs([(x0, 55.0)]);
        let rho0 = p.subst();
        let mut patcher = TracePatcher::new(&rho0, &subst);
        let patched = canvas.patched(&mut |n, t| patcher.patch(n, t)).unwrap();
        let full = Canvas::from_value(&p.with_subst(&subst).eval().unwrap()).unwrap();
        assert_eq!(
            patched.to_svg(RenderOptions::default()),
            full.to_svg(RenderOptions::default())
        );
        assert_eq!(patched.shapes()[3].node.num_attr("x").unwrap().n, 130.0);
    }

    #[test]
    fn patch_failure_propagates() {
        let c = canvas_of("(svg [(rect 'a' 1 2 3 4)])");
        assert!(c.patched(&mut |_, _| None).is_none());
        assert!(!c.patches(&mut |_, _| None));
    }

    #[test]
    fn patches_agrees_with_patched() {
        let c = canvas_of(
            "(svg [(rect 'a' 1 2 3 4) ['polygon' [['points' [[5 6] [7 8]]] ['fill' [1 2 3 4]]] []] \
             ['path' [['d' ['M' 9 10 'L' 11 12]] ['transform' [['rotate' 13 14 15]]]] []]])",
        );
        assert!(c.patches(&mut |n, _| Some(n)));
        assert!(c.patched(&mut |n, _| Some(n)).is_some());
        // Failing on any one number — wherever it sits in the tree — fails
        // both, so every kind of traced attribute is visited.
        for k in 1..=15 {
            let mut fail_on_k =
                |n: f64, _: &std::sync::Arc<sns_eval::Trace>| (n != f64::from(k)).then_some(n);
            assert!(!c.patches(&mut fail_on_k), "{k} not visited");
            assert!(c.patched(&mut fail_on_k).is_none(), "{k} not visited");
        }
    }

    #[test]
    fn in_place_patch_matches_the_patched_copy() {
        let mut c = canvas_of("(svg [(rect 'a' 1 2 3 4) (circle 'b' 5 6 7)])");
        let copy = c.patched(&mut |n, _| Some(n * 2.0)).unwrap();
        assert!(c.patch_in_place(&mut |n, _| Some(n * 2.0)));
        assert_eq!(
            c.to_svg(RenderOptions::default()),
            copy.to_svg(RenderOptions::default())
        );
        assert_eq!(c.shapes()[1].node.num_attr("r").unwrap().n, 14.0);
    }

    #[test]
    fn sine_wave_canvas_has_twelve_boxes() {
        let src = r#"
            (def [x0 y0 w h sep amp] [50 120 20 90 30 60])
            (def n 12!{3-30})
            (def boxi (λ i
              (let xi (+ x0 (* i sep))
              (let yi (- y0 (* amp (sin (* i (/ twoPi n)))))
                (rect 'lightblue' xi yi w h)))))
            (svg (map boxi (zeroTo n)))
        "#;
        let c = canvas_of(src);
        assert_eq!(c.shapes().len(), 12);
        // First box: x = 50 + 0*30 = 50.
        assert_eq!(c.shapes()[0].node.num_attr("x").unwrap().n, 50.0);
        // Third box: x = 50 + 2*30 = 110 (paper Equation 3).
        assert_eq!(c.shapes()[2].node.num_attr("x").unwrap().n, 110.0);
    }
}
