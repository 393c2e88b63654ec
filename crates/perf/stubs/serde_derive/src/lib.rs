//! The program derives `Serialize`/`Deserialize` but never serialises
//! through serde, so the offline derives expand to nothing.
use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn serialize(_: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn deserialize(_: TokenStream) -> TokenStream {
    TokenStream::new()
}
