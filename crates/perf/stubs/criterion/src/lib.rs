//! Resolution-only placeholder: `dp-perf` never compiles the program's
//! dev-dependencies, cargo only needs a package of this name to exist.
