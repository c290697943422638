package image

// ReadFile and FileChunk expose the file reader and its growth bound to
// the external fuzz test, which imports the corpus generator (itself an
// importer of this package).
var ReadFile = readFile

const FileChunk = fileChunk
