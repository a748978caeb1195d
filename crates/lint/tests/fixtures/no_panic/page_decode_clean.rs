// Fixture: page bytes decoded as untrusted input — whole 8-byte words
// through `as_chunks`, a row's word through `get`, adjacent offsets through
// `zip` — with no literal indexing, `unwrap` or `expect`.
pub fn decode_words(page: &[u8], rows: std::ops::Range<usize>) -> Option<Vec<u64>> {
    let (words, _) = page.as_chunks::<8>();
    let words = words.get(rows)?;
    Some(words.iter().map(|w| u64::from_le_bytes(*w)).collect())
}

pub fn lengths(offsets: &[u64]) -> Option<Vec<u64>> {
    (offsets.iter().zip(offsets.iter().skip(1)))
        .map(|(&a, &b)| b.checked_sub(a))
        .collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn decodes_little_endian_words() {
        let page = [1u8, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(super::decode_words(&page, 0..2).unwrap(), [1, 2]);
        assert_eq!(super::lengths(&[0, 3, 3]).unwrap(), [3, 0]);
    }
}
