//! The end-to-end benchmark binary (`--trace 0`): system allocator.

fn main() {
    std::process::exit(perfbench::main(None));
}
