//! A hand-rolled compact-JSON builder, so event assembly needs no
//! serialisation dependency. Build objects/arrays incrementally and
//! call `finish()` for the final string.

/// Incremental JSON object builder.
#[derive(Debug, Clone, Default)]
pub struct Obj {
    /// The fields so far, without the enclosing braces.
    buf: String,
}

/// Incremental JSON array builder.
#[derive(Debug, Clone, Default)]
pub struct Arr {
    /// The elements so far, without the enclosing brackets.
    buf: String,
}

fn push_escaped(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                buf.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

fn push_f64(buf: &mut String, v: f64) {
    if v.is_finite() {
        buf.push_str(&v.to_string());
    } else {
        buf.push_str("null");
    }
}

impl Obj {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, k: &str) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        push_escaped(&mut self.buf, k);
        self.buf.push(':');
    }

    /// Adds a string field.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        push_escaped(&mut self.buf, v);
        self
    }

    /// Adds a float field (non-finite values serialise as `null`).
    pub fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        push_f64(&mut self.buf, v);
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a field whose value is already-serialised JSON (a nested
    /// object or array from another builder).
    pub fn raw(mut self, k: &str, json: &str) -> Self {
        self.key(k);
        self.buf.push_str(json);
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

impl Arr {
    /// Starts an empty array.
    pub fn new() -> Self {
        Self::default()
    }

    fn sep(&mut self) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
    }

    /// Appends a float element.
    pub fn f64(mut self, v: f64) -> Self {
        self.sep();
        push_f64(&mut self.buf, v);
        self
    }

    /// Appends an unsigned integer element.
    pub fn u64(mut self, v: u64) -> Self {
        self.sep();
        self.buf.push_str(&v.to_string());
        self
    }

    /// Appends a string element.
    pub fn str(mut self, v: &str) -> Self {
        self.sep();
        push_escaped(&mut self.buf, v);
        self
    }

    /// Appends an already-serialised JSON element.
    pub fn raw(mut self, json: &str) -> Self {
        self.sep();
        self.buf.push_str(json);
        self
    }

    /// Closes the array and returns the JSON text.
    pub fn finish(self) -> String {
        format!("[{}]", self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_nested_objects() {
        let inner = Obj::new().u64("count", 3).f64("secs", 0.5).finish();
        let arr = Arr::new().f64(1.0).f64(-2.5).finish();
        let out = Obj::new()
            .str("event", "epoch \"1\"")
            .raw("stats", &inner)
            .raw("losses", &arr)
            .bool("done", true)
            .finish();
        assert_eq!(
            out,
            r#"{"event":"epoch \"1\"","stats":{"count":3,"secs":0.5},"losses":[1,-2.5],"done":true}"#
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Obj::new().f64("x", f64::NAN).finish(), r#"{"x":null}"#);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Obj::new().finish(), "{}");
        assert_eq!(Arr::new().finish(), "[]");
    }
}
