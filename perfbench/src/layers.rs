//! Traced-run replays: the benchmark times the public functions of the
//! `codec`, `kernel` and `verify` layers on the run's own inputs, from
//! its own code. Nothing inside the program is instrumented.

use crate::pool::{BatchCase, MulCase};
use crate::stats::median;
use crate::trace::Tracer;
use ft_bigint::BigInt;
use ft_service::json::{obj, Json};
use ft_service::plan_cache::PlanCache;
use ft_service::{Kernel, KernelPolicy};
use ft_toom_core::residue::verify_product;
use std::time::Instant;

/// Median time of `f` over `reps` calls, µs, each call a span.
fn timed<R>(tracer: &Tracer, name: &'static str, reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut us = Vec::with_capacity(reps);
    for _ in 0..reps {
        let request = tracer.id();
        let start = Instant::now();
        std::hint::black_box(f());
        let end = Instant::now();
        tracer.record(name, 0, request, start, end);
        us.push((end - start).as_secs_f64() * 1e6);
    }
    median(&us)
}

/// Repetitions that keep a replay of `bits`-bit operands short.
fn reps_for(bits: u64) -> usize {
    match bits {
        0..=16_384 => 200,
        16_385..=1_048_576 => 5,
        _ => 2,
    }
}

/// Codec costs of one single's request and response, µs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Codec {
    /// `Json::parse` of the request body.
    pub json_parse: f64,
    /// `BigInt::from_str` of one hex operand.
    pub hex_parse: f64,
    /// `BigInt::to_hex` of the product.
    pub to_hex: f64,
    /// `Json::dump` of the response object.
    pub dump: f64,
}

impl Codec {
    /// What the server's codec spends on one exchange: parse the body,
    /// decode both operands, encode the product, dump the response.
    #[must_use]
    pub fn per_request(&self) -> f64 {
        self.json_parse + 2.0 * self.hex_parse + self.to_hex + self.dump
    }
}

/// Time the codec calls the server makes for `case`.
#[must_use]
pub fn codec(tracer: &Tracer, case: &MulCase) -> Codec {
    let reps = reps_for(case.bits);
    let text = std::str::from_utf8(&case.body).expect("utf-8 body");
    let a_hex = case.a.to_hex();
    let response = obj([("product", Json::Str(case.product_hex.clone()))]);
    Codec {
        json_parse: timed(tracer, "codec.json_parse", reps, || Json::parse(text)),
        hex_parse: timed(tracer, "codec.hex_parse", reps, || a_hex.parse::<BigInt>()),
        to_hex: timed(tracer, "codec.to_hex", reps, || case.product.to_hex()),
        dump: timed(tracer, "codec.dump", reps, || response.dump()),
    }
}

/// Codec cost of one batch exchange, µs: parse the body, decode every
/// operand, encode and dump every result line.
#[must_use]
pub fn batch_codec(tracer: &Tracer, case: &BatchCase) -> f64 {
    let text = std::str::from_utf8(&case.body).expect("utf-8 body");
    let parse = timed(tracer, "codec.json_parse", 20, || Json::parse(text));
    let operands: Vec<String> = case
        .pairs
        .iter()
        .flat_map(|(a, b)| [a.to_hex(), b.to_hex()])
        .collect();
    let decode = timed(tracer, "codec.hex_parse", 20, || {
        operands
            .iter()
            .filter(|h| h.parse::<BigInt>().is_ok())
            .count()
    });
    let products: Vec<BigInt> = case
        .products
        .iter()
        .map(|p| p.parse().expect("reference"))
        .collect();
    let encode = timed(tracer, "codec.to_hex", 20, || {
        products
            .iter()
            .enumerate()
            .map(|(slot, p)| {
                obj([
                    ("slot", Json::Num(slot as i128)),
                    ("product", Json::Str(p.to_hex())),
                ])
                .dump()
                .len()
            })
            .sum::<usize>()
    });
    parse + decode + encode
}

/// `Kernel::select` + `Kernel::execute` under the default policy with a
/// plan cache, µs.
#[must_use]
pub fn kernel(tracer: &Tracer, case: &MulCase, plans: &PlanCache) -> f64 {
    let policy = KernelPolicy::default();
    timed(tracer, "kernel.execute", reps_for(case.bits), || {
        let product =
            Kernel::select(&case.a, &case.b, &policy).execute(&case.a, &case.b, &policy, plans);
        assert!(
            product == case.product,
            "kernel replay disagrees with the reference"
        );
    })
}

/// `verify_product` on a single's operands and product, µs.
#[must_use]
pub fn verify(tracer: &Tracer, case: &MulCase) -> f64 {
    timed(tracer, "verify.residue", reps_for(case.bits), || {
        assert!(verify_product(&case.a, &case.b, &case.product));
    })
}
