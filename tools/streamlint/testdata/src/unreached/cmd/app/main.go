// Command app is the fixture program's binary.
package main

import "unreached/internal/lib"

func main() {
	lib.Used()
}
