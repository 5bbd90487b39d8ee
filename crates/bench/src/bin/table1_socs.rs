//! Table 1: specifications of mainstream mobile heterogeneous SoCs.

use hetero_bench::{fmt, save_json, Table};
use hetero_soc::specs::table1;

fn main() {
    hetero_bench::cli(
        "table1_socs",
        "Table 1: specifications of mainstream mobile heterogeneous SoCs",
        &[],
        |_| (),
    );
    println!("Table 1: Mobile-side heterogeneous SoC specifications\n");
    let specs = table1();
    let mut t = Table::new(&[
        "Vendor", "SoC", "GPU", "GPU FP16", "NPU", "NPU INT8", "NPU FP16",
    ]);
    for s in &specs {
        t.row(&[
            s.vendor.into(),
            s.soc.into(),
            s.gpu.into(),
            format!("{} TFlops", fmt(s.gpu_fp16_tflops)),
            s.npu.into(),
            format!("{} Tops", fmt(s.npu_int8_tops)),
            s.npu_fp16_tflops
                .map(|v| format!("{} TFlops", fmt(v)))
                .unwrap_or_else(|| "None".into()),
        ]);
    }
    t.print();
    save_json("table1_socs", &specs);
}
