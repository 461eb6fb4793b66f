//! The run recipe every estimate starts from: `iris_simnet`'s [`WorkSpec`].

pub use iris_simnet::WorkSpec;
