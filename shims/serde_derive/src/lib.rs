//! Derive macros for the in-tree `serde` shim.
//!
//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` expand to empty marker
//! impls of the shim traits. The item name is recovered by scanning the token
//! stream for the `struct`/`enum` keyword, which is robust against leading
//! attributes and doc comments; generic items are rejected with a clear error
//! (no current derive target in the workspace is generic).

#![forbid(unsafe_code)]

use proc_macro::{TokenStream, TokenTree};

fn item_name(input: TokenStream) -> String {
    let mut iter = input.into_iter();
    while let Some(tt) = iter.next() {
        if let TokenTree::Ident(id) = &tt {
            let kw = id.to_string();
            if kw == "struct" || kw == "enum" || kw == "union" {
                match iter.next() {
                    Some(TokenTree::Ident(name)) => {
                        if let Some(TokenTree::Punct(p)) = iter.next() {
                            assert!(
                                p.as_char() != '<',
                                "serde shim derive does not support generic items"
                            );
                        }
                        return name.to_string();
                    }
                    other => panic!("expected item name after `{kw}`, found {other:?}"),
                }
            }
        }
    }
    panic!("serde shim derive target must be a struct or enum");
}

/// Emits `impl serde::Serialize` as a marker impl.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let name = item_name(input);
    format!("impl ::serde::Serialize for {name} {{}}")
        .parse()
        .expect("generated impl must parse")
}

/// Emits `impl serde::Deserialize` as a marker impl.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let name = item_name(input);
    format!("impl<'de> ::serde::Deserialize<'de> for {name} {{}}")
        .parse()
        .expect("generated impl must parse")
}
