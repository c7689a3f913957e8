package canon

import "reflect"

// Direct reports whether T has a field table: whether its canonical
// bytes can take the direct path at all.
func Direct[T any]() bool { return tableOf(reflect.TypeFor[T]()) != nil }

// DecodeDirect is Decode's direct path alone.
func DecodeDirect[T any](b []byte) (T, bool) { return decodeDirect[T](b) }

// EncodeDirect is Encode's direct path alone.
func EncodeDirect[T any](v T) ([]byte, bool) { return encodeDirect(&v) }
