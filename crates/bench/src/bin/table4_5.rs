//! Tables 4 & 5: single-core compression and decompression throughput
//! (MB/s) of SZx, ZFP-like, and SZ-like across all six applications at
//! REL 1e-2 / 1e-3 / 1e-4. Per-application numbers are overall (all fields'
//! bytes over all fields' time), exactly like the paper.

use bench::{mbs, median_time, scale_from_env, seed_for, REL_BOUNDS};
use szx_baselines::{szlike, zfplike};
use szx_core::{DecodeScratch, KernelSelect, SzxConfig};
use szx_data::Application;

fn main() {
    let scale = scale_from_env();
    let datasets: Vec<_> = Application::ALL
        .iter()
        .map(|app| app.generate(scale, seed_for(*app)))
        .collect();

    for table in ["Table 4: compression", "Table 5: decompression"] {
        let decomp = table.contains("decompression");
        println!("\n{table} throughput on a single core (MB/s; scale {scale:?})");
        print!("{:<6} {:>5} |", "codec", "REL");
        for app in Application::ALL {
            print!(" {:>8}", app.short_name());
        }
        println!();
        for codec in ["SZx", "ZFP", "SZ"] {
            for rel in REL_BOUNDS {
                print!("{codec:<6} {rel:>5.0e} |");
                for ds in &datasets {
                    let mut total_bytes = 0usize;
                    let mut total_time = 0f64;
                    for f in &ds.fields {
                        let eb = (rel * f.value_range()).max(1e-30);
                        total_bytes += f.raw_bytes();
                        let t = match (codec, decomp) {
                            ("SZx", false) => {
                                let cfg = SzxConfig::absolute(eb);
                                median_time(3, || szx_core::compress(&f.data, &cfg).expect("szx"))
                            }
                            ("SZx", true) => {
                                let cfg = SzxConfig::absolute(eb);
                                let bytes = szx_core::compress(&f.data, &cfg).expect("szx");
                                let mut out = vec![0f32; f.data.len()];
                                let mut scratch = DecodeScratch::default();
                                median_time(3, || {
                                    szx_core::decompress_into_scratch(
                                        &bytes,
                                        &mut out,
                                        KernelSelect::Auto,
                                        &mut scratch,
                                    )
                                    .expect("szx d")
                                })
                            }
                            ("ZFP", false) => median_time(3, || {
                                zfplike::compress(&f.data, f.dims, eb).expect("zfp")
                            }),
                            ("ZFP", true) => {
                                let bytes = zfplike::compress(&f.data, f.dims, eb).expect("zfp");
                                median_time(3, || zfplike::decompress(&bytes).expect("zfp d"))
                            }
                            ("SZ", false) => median_time(3, || {
                                szlike::compress(&f.data, f.dims, eb).expect("sz")
                            }),
                            _ => {
                                let bytes = szlike::compress(&f.data, f.dims, eb).expect("sz");
                                median_time(3, || szlike::decompress(&bytes).expect("sz d"))
                            }
                        };
                        total_time += t;
                    }
                    print!(" {:>8.0}", mbs(total_bytes, total_time));
                }
                println!();
            }
        }
    }
    println!("\n(paper shape: SZx 2.5-5x faster than ZFP and 5-7x faster than SZ in");
    println!(" compression; 2-4x faster than both in decompression)");
}
