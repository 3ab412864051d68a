//! The custom-derivative registry — the paper's `@derivative(of:)`
//! attribute (§2.1).
//!
//! The AD code transformation is recursive: the derivative of a function is
//! built from the derivatives of its callees. The recursion needs base
//! cases, and the paper makes those *fully customizable*: users register a
//! derivative for a named operation, and the transformation stops recursing
//! when it reaches a registered name. The `s4tf-sil` derivative-synthesis
//! pass consults this registry for its scalar base cases, so registering a
//! custom derivative here changes the synthesized code there — the same
//! extension point the paper describes.

use std::collections::HashMap;
use std::sync::RwLock;

/// A registered derivative for a unary scalar operation.
#[derive(Clone, Copy, Debug)]
pub struct UnaryDerivative {
    /// The original function.
    pub f: fn(f64) -> f64,
    /// Its derivative `df/dx`.
    pub df: fn(f64) -> f64,
}

/// A registered derivative for a binary scalar operation.
#[derive(Clone, Copy, Debug)]
pub struct BinaryDerivative {
    /// The original function.
    pub f: fn(f64, f64) -> f64,
    /// Both partial derivatives `(∂f/∂x, ∂f/∂y)` at a point.
    pub df: fn(f64, f64) -> (f64, f64),
}

struct Registry {
    unary: HashMap<String, UnaryDerivative>,
    binary: HashMap<String, BinaryDerivative>,
}

fn registry() -> &'static RwLock<Registry> {
    use std::sync::OnceLock;
    static REGISTRY: OnceLock<RwLock<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(builtins()))
}

fn builtins() -> Registry {
    let mut unary: HashMap<String, UnaryDerivative> = HashMap::new();
    let mut binary: HashMap<String, BinaryDerivative> = HashMap::new();

    let mut u = |name: &str, f: fn(f64) -> f64, df: fn(f64) -> f64| {
        unary.insert(name.to_string(), UnaryDerivative { f, df });
    };
    u("sin", f64::sin, f64::cos);
    u("cos", f64::cos, |x| -x.sin());
    u("exp", f64::exp, f64::exp);
    u("ln", f64::ln, |x| 1.0 / x);
    u("sqrt", f64::sqrt, |x| 0.5 / x.sqrt());
    u("tanh", f64::tanh, |x| 1.0 - x.tanh() * x.tanh());
    u("sigmoid", sigmoid, |x| {
        let s = sigmoid(x);
        s * (1.0 - s)
    });
    u("relu", |x| x.max(0.0), |x| if x > 0.0 { 1.0 } else { 0.0 });
    u("square", |x| x * x, |x| 2.0 * x);
    u("neg", |x| -x, |_| -1.0);
    u("recip", |x| 1.0 / x, |x| -1.0 / (x * x));
    u("abs", f64::abs, f64::signum);
    // Piecewise-constant helpers (derivative zero almost everywhere); the
    // SIL JVP emitter uses them to express relu/abs/max/min partials.
    u("step", |x| if x >= 0.0 { 1.0 } else { 0.0 }, |_| 0.0);
    u("sign", f64::signum, |_| 0.0);

    let mut b = |name: &str, f: fn(f64, f64) -> f64, df: fn(f64, f64) -> (f64, f64)| {
        binary.insert(name.to_string(), BinaryDerivative { f, df });
    };
    b("add", |x, y| x + y, |_, _| (1.0, 1.0));
    b("sub", |x, y| x - y, |_, _| (1.0, -1.0));
    b("mul", |x, y| x * y, |x, y| (y, x));
    b("div", |x, y| x / y, |x, y| (1.0 / y, -x / (y * y)));
    b("pow", f64::powf, |x, y| {
        (y * x.powf(y - 1.0), x.powf(y) * x.ln())
    });
    b("max", f64::max, |x, y| {
        if x >= y {
            (1.0, 0.0)
        } else {
            (0.0, 1.0)
        }
    });
    b("min", f64::min, |x, y| {
        if x <= y {
            (1.0, 0.0)
        } else {
            (0.0, 1.0)
        }
    });

    Registry { unary, binary }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Registers (or overrides) a custom derivative for a unary operation —
/// the equivalent of writing `@derivative(of: name)`.
pub fn register_unary(name: &str, d: UnaryDerivative) {
    registry()
        .write()
        .expect("derivative registry poisoned")
        .unary
        .insert(name.to_string(), d);
}

/// Looks up the registered derivative of a unary operation.
pub fn lookup_unary(name: &str) -> Option<UnaryDerivative> {
    registry()
        .read()
        .expect("derivative registry poisoned")
        .unary
        .get(name)
        .copied()
}

/// Looks up the registered derivative of a binary operation.
pub fn lookup_binary(name: &str) -> Option<BinaryDerivative> {
    registry()
        .read()
        .expect("derivative registry poisoned")
        .binary
        .get(name)
        .copied()
}

/// Names of all registered unary operations (sorted, for diagnostics).
pub fn unary_names() -> Vec<String> {
    let mut names: Vec<String> = registry()
        .read()
        .expect("derivative registry poisoned")
        .unary
        .keys()
        .cloned()
        .collect();
    names.sort();
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_unary_derivatives() {
        let d = lookup_unary("sin").unwrap();
        assert_eq!((d.f)(0.0), 0.0);
        assert_eq!((d.df)(0.0), 1.0);
        let d = lookup_unary("relu").unwrap();
        assert_eq!((d.df)(-1.0), 0.0);
        assert_eq!((d.df)(1.0), 1.0);
        assert!(lookup_unary("no_such_op").is_none());
    }

    #[test]
    fn builtin_binary_derivatives() {
        let d = lookup_binary("mul").unwrap();
        assert_eq!((d.f)(3.0, 4.0), 12.0);
        assert_eq!((d.df)(3.0, 4.0), (4.0, 3.0));
        let d = lookup_binary("div").unwrap();
        let (dx, dy) = (d.df)(1.0, 2.0);
        assert_eq!(dx, 0.5);
        assert_eq!(dy, -0.25);
    }

    #[test]
    fn derivatives_consistent_with_finite_differences() {
        let eps = 1e-6;
        for name in unary_names() {
            let d = lookup_unary(&name).unwrap();
            // Probe points where every builtin is differentiable.
            for &x in &[0.4f64, 1.3, 2.1] {
                let fd = ((d.f)(x + eps) - (d.f)(x - eps)) / (2.0 * eps);
                let ad = (d.df)(x);
                assert!((fd - ad).abs() < 1e-4, "{name} at {x}: fd={fd} ad={ad}");
            }
        }
    }

    #[test]
    fn custom_registration_overrides() {
        register_unary(
            "cube_test_only",
            UnaryDerivative {
                f: |x| x * x * x,
                df: |x| 3.0 * x * x,
            },
        );
        let d = lookup_unary("cube_test_only").unwrap();
        assert_eq!((d.f)(2.0), 8.0);
        assert_eq!((d.df)(2.0), 12.0);
    }

    #[test]
    fn unary_names_sorted() {
        let names = unary_names();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert!(names.iter().any(|n| n == "exp"));
    }
}
